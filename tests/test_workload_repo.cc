/**
 * @file
 * Tests for the workload-spec registry and the WorkloadRepo cache: name
 * resolution (fixed mixes and the paperxN pattern), recipe-driven
 * builds (paper-mix parity, duplicate-slot rebasing, decoder-only mixes
 * synthesizing their bitstreams), per-spec fingerprint distinctness,
 * and the repo's build-once sharing across lookups and concurrent
 * prebuilds.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "workloads/workload_repo.hh"

namespace momsim::workloads
{
namespace
{

using isa::SimdIsa;

// ---------------------------------------------------------------------------
// WorkloadSpec registry
// ---------------------------------------------------------------------------

TEST(WorkloadSpec, RegistryHoldsTheDocumentedMixes)
{
    std::set<std::string> names;
    for (const WorkloadSpec &spec : WorkloadSpec::registry()) {
        EXPECT_FALSE(spec.slots.empty()) << spec.name;
        EXPECT_FALSE(spec.description.empty()) << spec.name;
        names.insert(spec.name);
    }
    for (const char *expected : { "paper", "decode-heavy", "encode-heavy",
                                  "mpeg2x8", "gsmx8", "jpegx8" })
        EXPECT_EQ(names.count(expected), 1u) << expected;
}

TEST(WorkloadSpec, PaperMixIsTheSection51Rotation)
{
    WorkloadSpec spec = WorkloadSpec::paper();
    ASSERT_EQ(spec.slots.size(), 8u);
    const ProgramKind expected[8] = {
        ProgramKind::Mpeg2Enc, ProgramKind::GsmDec, ProgramKind::Mpeg2Dec,
        ProgramKind::GsmEnc, ProgramKind::JpegDec, ProgramKind::JpegEnc,
        ProgramKind::Mesa, ProgramKind::Mpeg2Dec,
    };
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(spec.slots[i], expected[i]) << "slot " << i;
}

TEST(WorkloadSpec, ByNameResolvesFixedAndScaledNames)
{
    WorkloadSpec spec;
    ASSERT_TRUE(WorkloadSpec::byName("decode-heavy", spec));
    EXPECT_EQ(spec.name, "decode-heavy");
    EXPECT_EQ(spec.slots.size(), 8u);

    ASSERT_TRUE(WorkloadSpec::byName("paperx3", spec));
    EXPECT_EQ(spec.slots.size(), 24u);
    // Each repetition preserves the rotation order.
    for (size_t i = 0; i < spec.slots.size(); ++i)
        EXPECT_EQ(spec.slots[i], WorkloadSpec::paper().slots[i % 8]);

    EXPECT_FALSE(WorkloadSpec::isKnown("paperx1"));
    EXPECT_FALSE(WorkloadSpec::isKnown("paperx9"));
    EXPECT_FALSE(WorkloadSpec::isKnown("paperx"));
    EXPECT_FALSE(WorkloadSpec::isKnown("paperx2b"));
    EXPECT_FALSE(WorkloadSpec::isKnown("paperx+3"));
    EXPECT_FALSE(WorkloadSpec::isKnown("paperx03"));
    EXPECT_FALSE(WorkloadSpec::isKnown("nonsense"));
    EXPECT_TRUE(WorkloadSpec::isKnown("paperx8"));
}

// ---------------------------------------------------------------------------
// Recipe-driven builds
// ---------------------------------------------------------------------------

WorkloadSpec
tinySpec(const std::string &name)
{
    WorkloadSpec spec;
    EXPECT_TRUE(WorkloadSpec::byName(name, spec)) << name;
    spec.scale = WorkloadScale::Tiny;
    return spec;
}

TEST(MediaWorkloadBuild, PaperRecipeMatchesTheHistoricalLayout)
{
    auto wl = MediaWorkload::build(tinySpec("paper"));
    ASSERT_EQ(wl->numPrograms(), MediaWorkload::kNumPrograms);
    EXPECT_EQ(wl->specName(), "paper");
    const char *names[8] = { "mpeg2enc", "gsmdec", "mpeg2dec", "gsmenc",
                             "jpegdec", "jpegenc", "mesa", "mpeg2dec2" };
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(wl->name(i), names[i]) << "slot " << i;

    // The scale-only overload is the paper spec by definition.
    auto legacy = MediaWorkload::build(WorkloadScale::Tiny);
    EXPECT_EQ(legacy->fingerprint(), wl->fingerprint());
    EXPECT_EQ(legacy->specName(), "paper");

    // The duplicate decoder is the first instance rebased: identical
    // trace length, distinct name and address space.
    const trace::Program &first = wl->program(SimdIsa::Mmx, 2);
    const trace::Program &second = wl->program(SimdIsa::Mmx, 7);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(second.name(), "mpeg2dec2");
    EXPECT_NE(first.insts()[0].pc, second.insts()[0].pc);
    EXPECT_EQ(wl->eqInsts(SimdIsa::Mmx, 2), wl->eqInsts(SimdIsa::Mmx, 7));
}

TEST(MediaWorkloadBuild, DecoderOnlyMixSynthesizesItsBitstreams)
{
    // decode-heavy has no encoders: every decoder must still get a
    // valid stream (from throwaway scratch builds) and nonempty traces.
    auto wl = MediaWorkload::build(tinySpec("decode-heavy"));
    ASSERT_EQ(wl->numPrograms(), 8);
    int decoders = 0;
    for (int i = 0; i < wl->numPrograms(); ++i) {
        EXPECT_FALSE(wl->program(SimdIsa::Mmx, i).empty()) << i;
        EXPECT_FALSE(wl->program(SimdIsa::Mom, i).empty()) << i;
        ProgramKind kind = wl->kind(i);
        decoders += kind == ProgramKind::Mpeg2Dec ||
                    kind == ProgramKind::GsmDec ||
                    kind == ProgramKind::JpegDec;
    }
    EXPECT_EQ(decoders, 7);
    // Ordinal naming handles three copies.
    EXPECT_EQ(wl->name(0), "mpeg2dec");
    EXPECT_EQ(wl->name(3), "mpeg2dec2");
    EXPECT_EQ(wl->name(7), "mpeg2dec3");
}

TEST(MediaWorkloadBuild, ScaledMixRepeatsThePaperRotation)
{
    auto paper = MediaWorkload::build(tinySpec("paper"));
    auto x2 = MediaWorkload::build(tinySpec("paperx2"));
    ASSERT_EQ(x2->numPrograms(), 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(x2->kind(i), paper->kind(i % 8)) << i;
    // Same per-slot work, twice — and a distinct fingerprint.
    EXPECT_EQ(x2->eqInsts(SimdIsa::Mmx, 8),
              paper->eqInsts(SimdIsa::Mmx, 0));
    EXPECT_NE(x2->fingerprint(), paper->fingerprint());
    EXPECT_EQ(x2->rotation(SimdIsa::Mom).size(), 16u);
}

TEST(MediaWorkloadBuild, DistinctMixesHaveDistinctFingerprints)
{
    std::set<uint64_t> fingerprints;
    for (const char *name : { "paper", "decode-heavy", "encode-heavy",
                              "gsmx8", "jpegx8" }) {
        auto wl = MediaWorkload::build(tinySpec(name));
        EXPECT_NE(wl->fingerprint(), 0u) << name;
        EXPECT_TRUE(fingerprints.insert(wl->fingerprint()).second)
            << name << " collides";
    }
}

// ---------------------------------------------------------------------------
// WorkloadRepo caching
// ---------------------------------------------------------------------------

TEST(WorkloadRepo, BuildsOnceAndSharesThereafter)
{
    WorkloadRepo repo(WorkloadScale::Tiny);
    EXPECT_EQ(repo.size(), 0u);
    ASSERT_EQ(repo.missing({ "gsmx8", "gsmx8", "paper" }).size(), 2u);

    auto first = repo.get("gsmx8");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(repo.size(), 1u);
    // Same object, not a rebuild.
    EXPECT_EQ(repo.get("gsmx8").get(), first.get());
    EXPECT_EQ(repo.size(), 1u);
    EXPECT_EQ(repo.fingerprintOf("gsmx8"), first->fingerprint());
    EXPECT_TRUE(repo.missing({ "gsmx8" }).empty());
    ASSERT_EQ(repo.missing({ "gsmx8", "jpegx8" }).size(), 1u);
    EXPECT_EQ(repo.missing({ "gsmx8", "jpegx8" })[0], "jpegx8");
}

TEST(WorkloadRepo, PrebuildBuildsDistinctSpecsConcurrently)
{
    WorkloadRepo repo(WorkloadScale::Tiny);
    auto gsm = repo.get("gsmx8");
    // Duplicates and already-built names are skipped; the two missing
    // specs build on two threads.
    repo.prebuild({ "gsmx8", "jpegx8", "jpegx8", "mpeg2x8" }, 2);
    EXPECT_EQ(repo.size(), 3u);
    EXPECT_TRUE(repo.missing({ "gsmx8", "jpegx8", "mpeg2x8" }).empty());
    EXPECT_EQ(repo.get("gsmx8").get(), gsm.get());
    EXPECT_NE(repo.fingerprintOf("gsmx8"), repo.fingerprintOf("jpegx8"));
    EXPECT_NE(repo.fingerprintOf("jpegx8"), repo.fingerprintOf("mpeg2x8"));

    // Nothing left to build: a no-op, on any thread count.
    repo.prebuild({ "jpegx8" }, 0);
    EXPECT_EQ(repo.size(), 3u);
}

} // namespace
} // namespace momsim::workloads
