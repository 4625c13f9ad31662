/**
 * @file
 * Unit tests for the common substrate: logging, RNG, fixed point, stats,
 * bit I/O, HOST:PORT parsing.
 */

#include <gtest/gtest.h>

#include "common/bitio.hh"
#include "common/fixed.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace momsim
{
namespace
{

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strfmt("%05.1f", 3.25), "003.2");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Net, ParseHostPortWantsAHostAndAPortIn1To65535)
{
    std::string host;
    int port = 0;
    ASSERT_TRUE(net::parseHostPort("127.0.0.1:7000", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7000);
    for (const char *bad : { "h:", "h:0", ":7000", "h:65536", "h:7x", "h" })
        EXPECT_FALSE(net::parseHostPort(bad, host, port)) << bad;
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedResetsSequence)
{
    Rng a(7);
    uint64_t first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(99);
    for (uint64_t bound : { 1ull, 2ull, 7ull, 255ull, 100000ull }) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(17);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Fixed, SaturationBoundaries)
{
    EXPECT_EQ(satS16(40000), 32767);
    EXPECT_EQ(satS16(-40000), -32768);
    EXPECT_EQ(satS16(1234), 1234);
    EXPECT_EQ(satU8(300), 255);
    EXPECT_EQ(satU8(-5), 0);
    EXPECT_EQ(satU8(128), 128);
    EXPECT_EQ(satS8(200), 127);
    EXPECT_EQ(satS8(-200), -128);
    EXPECT_EQ(satU16(70000), 65535);
    EXPECT_EQ(satU16(-1), 0);
}

TEST(Fixed, SatAddSub16)
{
    EXPECT_EQ(satAdd16(30000, 30000), 32767);
    EXPECT_EQ(satAdd16(-30000, -30000), -32768);
    EXPECT_EQ(satAdd16(100, 23), 123);
    EXPECT_EQ(satSub16(-30000, 30000), -32768);
    EXPECT_EQ(satSub16(5, 3), 2);
}

TEST(Fixed, GsmMultCorners)
{
    EXPECT_EQ(gsmMult(-32768, -32768), 32767);
    EXPECT_EQ(gsmMultR(-32768, -32768), 32767);
    EXPECT_EQ(gsmMult(16384, 16384), 8192);   // 0.5 * 0.5 = 0.25 in Q15
    EXPECT_EQ(gsmMultR(16384, 16384), 8192);
    EXPECT_EQ(gsmMult(32767, 0), 0);
}

TEST(Fixed, AbsAndShifts)
{
    EXPECT_EQ(satAbs16(-32768), 32767);
    EXPECT_EQ(satAbs16(-5), 5);
    EXPECT_EQ(satAbs16(5), 5);
    EXPECT_EQ(shl16(1, 3), 8);
    EXPECT_EQ(shl16(20000, 2), 32767);       // saturates
    EXPECT_EQ(shl16(8, -2), 2);              // negative count shifts right
    EXPECT_EQ(shr16(8, 2), 2);
    EXPECT_EQ(shr16(8, -2), 32);
}

TEST(Fixed, Norm32)
{
    EXPECT_EQ(norm32(0), 0);
    EXPECT_EQ(norm32(0x40000000), 0);
    EXPECT_EQ(norm32(1), 30);
    EXPECT_EQ(norm32(-1), 31);
    EXPECT_EQ(norm32(-0x40000001), 0);
}

TEST(Stats, CounterAndRatio)
{
    StatGroup g("core");
    g.counter("cycles") = 100;
    g.counter("insts") = 250;
    EXPECT_EQ(g.get("cycles"), 100u);
    EXPECT_DOUBLE_EQ(g.ratio("insts", "cycles"), 2.5);
    EXPECT_DOUBLE_EQ(g.ratio("insts", "absent"), 0.0);
    EXPECT_EQ(g.get("absent"), 0u);
}

TEST(Stats, ClearZeroes)
{
    StatGroup g("x");
    g.counter("a") = 7;
    g.clear();
    EXPECT_EQ(g.get("a"), 0u);
}

TEST(Stats, DumpContainsEntries)
{
    StatGroup g("grp");
    g.counter("hits") = 3;
    std::string d = g.dump();
    EXPECT_NE(d.find("grp.hits = 3"), std::string::npos);
}

TEST(BitIo, RoundTripVariousWidths)
{
    BitWriter w;
    w.put(0x5, 3);
    w.put(0x1234, 16);
    w.put(1, 1);
    w.put(0xABCDEF, 24);
    w.alignByte();
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(3), 0x5u);
    EXPECT_EQ(r.get(16), 0x1234u);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(24), 0xABCDEFu);
}

TEST(BitIo, PeekDoesNotConsume)
{
    BitWriter w;
    w.put(0xA, 4);
    w.alignByte();
    BitReader r(w.bytes());
    EXPECT_EQ(r.peek(4), 0xAu);
    EXPECT_EQ(r.peek(4), 0xAu);
    EXPECT_EQ(r.get(4), 0xAu);
}

TEST(BitIo, AlignPadsWithZeros)
{
    BitWriter w;
    w.put(1, 1);
    w.alignByte();
    EXPECT_EQ(w.bitCount(), 8u);
    EXPECT_EQ(w.bytes().size(), 1u);
    EXPECT_EQ(w.bytes()[0], 0x80);
}

TEST(BitIo, ReadPastEndYieldsZeros)
{
    BitWriter w;
    w.put(0xFF, 8);
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(8), 0xFFu);
    EXPECT_EQ(r.get(8), 0u);
    EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, LongRandomRoundTrip)
{
    Rng rng(42);
    BitWriter w;
    std::vector<std::pair<uint32_t, int>> items;
    for (int i = 0; i < 5000; ++i) {
        int bits = static_cast<int>(rng.below(24)) + 1;
        uint32_t v = static_cast<uint32_t>(rng.next()) &
                     ((bits == 32) ? 0xFFFFFFFFu : ((1u << bits) - 1));
        items.emplace_back(v, bits);
        w.put(v, bits);
    }
    w.alignByte();
    BitReader r(w.bytes());
    for (auto &[v, bits] : items)
        ASSERT_EQ(r.get(bits), v);
}

} // namespace
} // namespace momsim
