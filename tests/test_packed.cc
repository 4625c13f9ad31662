/**
 * @file
 * Property tests for the packed µ-SIMD semantics: every packed operation
 * is cross-checked against an independent scalar reference loop over
 * randomized inputs, plus hand-picked saturation corner cases.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "trace/builder.hh"
#include "trace/inst_arena.hh"
#include "trace/packed.hh"
#include "trace/program.hh"
#include "trace/scalar_emitter.hh"

namespace momsim::trace
{
namespace
{

class PackedRandom : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Rng rng{GetParam()};
    uint64_t ra() { return rng.next(); }
};

TEST_P(PackedRandom, LaneAccessorsRoundTrip)
{
    for (int iter = 0; iter < 100; ++iter) {
        uint64_t v = ra();
        for (int i = 0; i < 8; ++i) {
            uint64_t w = setLaneB(v, i, 0xAB);
            EXPECT_EQ(laneB(w, i), 0xAB);
            for (int j = 0; j < 8; ++j) {
                if (j != i)
                    EXPECT_EQ(laneB(w, j), laneB(v, j));
            }
        }
        for (int i = 0; i < 4; ++i) {
            uint64_t w = setLaneW(v, i, 0xBEEF);
            EXPECT_EQ(laneUW(w, i), 0xBEEF);
        }
    }
}

TEST_P(PackedRandom, ByteAddSubSaturation)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra(), b = ra();
        uint64_t sum = paddusb(a, b), dif = psubusb(a, b);
        for (int i = 0; i < 8; ++i) {
            int s = laneB(a, i) + laneB(b, i);
            int d = laneB(a, i) - laneB(b, i);
            EXPECT_EQ(laneB(sum, i), s > 255 ? 255 : s);
            EXPECT_EQ(laneB(dif, i), d < 0 ? 0 : d);
        }
    }
}

TEST_P(PackedRandom, ByteMinMaxAvgAbsd)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra(), b = ra();
        uint64_t mx = pmaxub(a, b), mn = pminub(a, b);
        uint64_t av = pavgb(a, b), ad = pabsdb(a, b);
        for (int i = 0; i < 8; ++i) {
            int x = laneB(a, i), y = laneB(b, i);
            EXPECT_EQ(laneB(mx, i), std::max(x, y));
            EXPECT_EQ(laneB(mn, i), std::min(x, y));
            EXPECT_EQ(laneB(av, i), (x + y + 1) >> 1);
            EXPECT_EQ(laneB(ad, i), std::abs(x - y));
        }
    }
}

TEST_P(PackedRandom, SadMatchesScalar)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra(), b = ra();
        uint32_t ref = 0;
        for (int i = 0; i < 8; ++i)
            ref += std::abs(static_cast<int>(laneB(a, i)) - laneB(b, i));
        EXPECT_EQ(psadbw(a, b), ref);
    }
}

TEST_P(PackedRandom, WordArithmetic)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra(), b = ra();
        uint64_t sum = paddw(a, b), ssum = paddsw(a, b);
        uint64_t dif = psubw(a, b), sdif = psubsw(a, b);
        uint64_t mull = pmullw(a, b), mulh = pmulhw(a, b);
        for (int i = 0; i < 4; ++i) {
            int32_t x = laneW(a, i), y = laneW(b, i);
            EXPECT_EQ(laneW(sum, i), static_cast<int16_t>(x + y));
            EXPECT_EQ(laneW(ssum, i), satS16(x + y));
            EXPECT_EQ(laneW(dif, i), static_cast<int16_t>(x - y));
            EXPECT_EQ(laneW(sdif, i), satS16(x - y));
            EXPECT_EQ(laneW(mull, i), static_cast<int16_t>((x * y) & 0xFFFF));
            EXPECT_EQ(laneW(mulh, i), static_cast<int16_t>((x * y) >> 16));
        }
    }
}

TEST_P(PackedRandom, MaddPairsWords)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra(), b = ra();
        uint64_t r = pmaddwd(a, b);
        EXPECT_EQ(laneD(r, 0),
                  laneW(a, 0) * laneW(b, 0) + laneW(a, 1) * laneW(b, 1));
        EXPECT_EQ(laneD(r, 1),
                  laneW(a, 2) * laneW(b, 2) + laneW(a, 3) * laneW(b, 3));
    }
}

TEST_P(PackedRandom, ShiftFamilies)
{
    for (int iter = 0; iter < 100; ++iter) {
        uint64_t a = ra();
        for (int n : { 0, 1, 5, 15 }) {
            uint64_t sl = psllw(a, n), srl = psrlw(a, n), sra = psraw(a, n);
            for (int i = 0; i < 4; ++i) {
                EXPECT_EQ(laneUW(sl, i),
                          static_cast<uint16_t>(laneUW(a, i) << n));
                EXPECT_EQ(laneUW(srl, i),
                          static_cast<uint16_t>(laneUW(a, i) >> n));
                EXPECT_EQ(laneW(sra, i),
                          static_cast<int16_t>(laneW(a, i) >> n));
            }
        }
    }
}

TEST_P(PackedRandom, RoundingShiftBiasesTowardNearest)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra();
        for (int n : { 1, 3, 8 }) {
            uint64_t r = psrarw(a, n);
            for (int i = 0; i < 4; ++i) {
                int32_t x = laneW(a, i);
                EXPECT_EQ(laneW(r, i), static_cast<int16_t>(
                    (x + (1 << (n - 1))) >> n));
            }
        }
    }
}

TEST_P(PackedRandom, PackUnpackInverse)
{
    for (int iter = 0; iter < 200; ++iter) {
        // Halfwords already in byte range survive pack+unpack unchanged.
        uint64_t a = 0, b = 0;
        for (int i = 0; i < 4; ++i) {
            a = setLaneW(a, i, static_cast<uint16_t>(rng.below(256)));
            b = setLaneW(b, i, static_cast<uint16_t>(rng.below(256)));
        }
        uint64_t packed = packuswb(a, b);
        uint64_t zero = 0;
        uint64_t lo = punpcklbw(packed, zero);
        uint64_t hi = punpckhbw(packed, zero);
        EXPECT_EQ(lo, a);
        EXPECT_EQ(hi, b);
    }
}

TEST_P(PackedRandom, LogicalAndSelect)
{
    for (int iter = 0; iter < 100; ++iter) {
        uint64_t a = ra(), b = ra(), m = ra();
        EXPECT_EQ(pand(a, b), (a & b));
        EXPECT_EQ(pandn(a, b), (~a & b));
        EXPECT_EQ(por(a, b), (a | b));
        EXPECT_EQ(pxor(a, b), (a ^ b));
        uint64_t sel = pbitsel(m, a, b);
        for (int bit = 0; bit < 64; ++bit) {
            uint64_t want = ((m >> bit) & 1) ? ((a >> bit) & 1)
                                             : ((b >> bit) & 1);
            ASSERT_EQ((sel >> bit) & 1, want);
        }
    }
}

TEST_P(PackedRandom, Reductions)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = ra();
        uint32_t sb = 0;
        int32_t sw = 0;
        int16_t mx = laneW(a, 0), mn = laneW(a, 0);
        for (int i = 0; i < 8; ++i)
            sb += laneB(a, i);
        for (int i = 0; i < 4; ++i) {
            sw += laneW(a, i);
            mx = std::max(mx, laneW(a, i));
            mn = std::min(mn, laneW(a, i));
        }
        EXPECT_EQ(phsumbw(a), sb);
        EXPECT_EQ(phsumwd(a), sw);
        EXPECT_EQ(phmaxw(a), mx);
        EXPECT_EQ(phminw(a), mn);
    }
}

TEST_P(PackedRandom, WidenNarrowRoundTrip)
{
    for (int iter = 0; iter < 200; ++iter) {
        uint32_t four = static_cast<uint32_t>(ra());
        uint64_t wide = widenUB2QH(four);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(laneUW(wide, i), (four >> (8 * i)) & 0xFF);
        EXPECT_EQ(narrowQH2UB(wide), four);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedRandom,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull));

TEST(Packed, PackSaturatesOutOfRange)
{
    uint64_t a = packW(-5, 300, 255, 256);
    uint64_t p = packuswb(a, a);
    EXPECT_EQ(laneB(p, 0), 0);
    EXPECT_EQ(laneB(p, 1), 255);
    EXPECT_EQ(laneB(p, 2), 255);
    EXPECT_EQ(laneB(p, 3), 255);
}

TEST(Packed, SplatHelpers)
{
    uint64_t w = splatW(-7);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(laneW(w, i), -7);
    uint64_t b = splatB(0x5A);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneB(b, i), 0x5A);
}

TEST(Packed, ShufflesAndSwaps)
{
    uint64_t a = packW(10, 20, 30, 40);
    uint64_t rev = pshufw(a, 0x1B);  // 00 01 10 11 -> lanes 3,2,1,0
    EXPECT_EQ(laneW(rev, 0), 40);
    EXPECT_EQ(laneW(rev, 1), 30);
    EXPECT_EQ(laneW(rev, 2), 20);
    EXPECT_EQ(laneW(rev, 3), 10);
    uint64_t sw = pswaphl(a);
    EXPECT_EQ(laneW(sw, 0), 30);
    EXPECT_EQ(laneW(sw, 1), 40);
    EXPECT_EQ(laneW(sw, 2), 10);
    EXPECT_EQ(laneW(sw, 3), 20);
}

TEST(Packed, PairAdd)
{
    uint64_t a = packW(100, -50, 32767, 1);
    uint64_t r = ppairaddw(a);
    EXPECT_EQ(laneD(r, 0), 50);
    EXPECT_EQ(laneD(r, 1), 32768);
}

TEST(Packed, CompareProducesMasks)
{
    uint64_t a = packW(5, -3, 7, 0);
    uint64_t b = packW(5, 0, -7, 0);
    uint64_t eq = pcmpeqw(a, b);
    EXPECT_EQ(laneUW(eq, 0), 0xFFFF);
    EXPECT_EQ(laneUW(eq, 1), 0);
    EXPECT_EQ(laneUW(eq, 2), 0);
    EXPECT_EQ(laneUW(eq, 3), 0xFFFF);
    uint64_t gt = pcmpgtw(a, b);
    EXPECT_EQ(laneUW(gt, 0), 0);
    EXPECT_EQ(laneUW(gt, 1), 0);
    EXPECT_EQ(laneUW(gt, 2), 0xFFFF);
    EXPECT_EQ(laneUW(gt, 3), 0);
}

TEST(Packed, Q15RoundMultiply)
{
    uint64_t a = splatW(16384);   // 0.5 in Q15
    uint64_t b = splatW(16384);
    uint64_t r = pmulrw(a, b);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(laneW(r, i), 8192);   // 0.25
    uint64_t corner = pmulrw(splatW(-32768), splatW(-32768));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(laneW(corner, i), 32767);
}

// ---------------------------------------------------------------------
// Sealed trace layout: Program::seal() into an InstArena
// ---------------------------------------------------------------------

/** A small deterministic program with memory, branch and ALU records. */
Program
smallProgram(const std::string &name, int length)
{
    TraceBuilder tb(name, isa::SimdIsa::Mmx, 16u << 20);
    ScalarEmitter s(tb);
    uint32_t buf = tb.alloc(1 << 12);
    IVal base = s.imm(static_cast<int32_t>(buf));
    IVal acc = s.imm(0);
    for (int i = 0; i < length; ++i) {
        acc = s.add(acc, s.loadI32(base, (i * 8) % (1 << 12)));
        if (i % 5 == 0)
            s.condBr(acc, (i % 2) != 0);
    }
    return tb.take();
}

TEST(SealedTrace, SealAdoptsTheBuildStorageWithIdenticalContent)
{
    Program a = smallProgram("a", 40);
    Program b = smallProgram("b", 25);
    // Snapshot the build-mode records, their address and the mix.
    const isa::TraceInst *builtA = a.insts().data();
    const isa::TraceInst *builtB = b.insts().data();
    std::vector<isa::TraceInst> beforeA(a.insts().begin(),
                                        a.insts().end());
    std::vector<isa::TraceInst> beforeB(b.insts().begin(),
                                        b.insts().end());
    MixSummary mixA = a.mix();

    InstArena arena;
    a.seal(arena);
    b.seal(arena);

    ASSERT_TRUE(a.sealed());
    ASSERT_TRUE(b.sealed());
    ASSERT_EQ(a.size(), beforeA.size());
    ASSERT_EQ(b.size(), beforeB.size());
    EXPECT_EQ(arena.size(), a.size() + b.size());

    // Sealing copies nothing: each span is the build buffer, now owned
    // by the arena.
    EXPECT_EQ(a.insts().data(), builtA);
    EXPECT_EQ(b.insts().data(), builtB);

    // Byte-identical records through the view.
    EXPECT_EQ(std::memcmp(a.insts().data(), beforeA.data(),
                          beforeA.size() * sizeof(isa::TraceInst)), 0);
    EXPECT_EQ(std::memcmp(b.insts().data(), beforeB.data(),
                          beforeB.size() * sizeof(isa::TraceInst)), 0);

    // The memoized mix survives unchanged, and a second seal is a
    // no-op.
    EXPECT_EQ(a.mix().records, mixA.records);
    EXPECT_EQ(a.mix().eqInsts, mixA.eqInsts);
    EXPECT_EQ(a.mix().memAccesses, mixA.memAccesses);
    EXPECT_EQ(a.mix().branches, mixA.branches);
    a.seal(arena);
    EXPECT_EQ(arena.size(), beforeA.size() + beforeB.size());
    EXPECT_EQ(a.insts().data(), builtA);
}

TEST(SealedTrace, RebasedCopiesOfSealedProgramsAreUnsealed)
{
    Program a = smallProgram("orig", 30);
    InstArena arena;
    a.seal(arena);

    constexpr uint32_t kDelta = 1u << 20;
    const Program &ca = a;
    Program moved = a.rebased(kDelta, "copy");
    const Program &cmoved = moved;
    EXPECT_FALSE(moved.sealed());
    ASSERT_EQ(moved.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const isa::TraceInst &src = ca.insts()[i];
        const isa::TraceInst &dst = cmoved.insts()[i];
        EXPECT_EQ(dst.pc, src.pc + kDelta);
        EXPECT_EQ(dst.op, src.op);
    }
    // The copy is independent build storage: appending to it is legal
    // and leaves the sealed original untouched.
    EXPECT_EQ(moved.mix().eqInsts, a.mix().eqInsts);
}

} // namespace
} // namespace momsim::trace
