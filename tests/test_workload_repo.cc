/**
 * @file
 * Tests for the workload-spec registry and the WorkloadRepo cache: name
 * resolution (fixed mixes and the paperxN pattern), recipe-driven
 * builds (paper-mix parity, duplicate-slot rebasing, decoder-only mixes
 * synthesizing their bitstreams), per-spec fingerprint distinctness
 * and pinned values on any thread count, the repo's build-once sharing
 * across lookups, prebuilds and concurrent callers, and the BuildPool
 * that runs synthesis graphs under one thread budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
    WorkloadRepo repo(WorkloadScale::Tiny, 2);
    auto gsm = repo.get("gsmx8");
    // Duplicates and already-built names are skipped; the two missing
    // specs build as one graph on two threads.
    repo.prebuild({ "gsmx8", "jpegx8", "jpegx8", "mpeg2x8" });
    EXPECT_EQ(repo.size(), 3u);
    EXPECT_TRUE(repo.missing({ "gsmx8", "jpegx8", "mpeg2x8" }).empty());
    EXPECT_EQ(repo.get("gsmx8").get(), gsm.get());
    EXPECT_NE(repo.fingerprintOf("gsmx8"), repo.fingerprintOf("jpegx8"));
    EXPECT_NE(repo.fingerprintOf("jpegx8"), repo.fingerprintOf("mpeg2x8"));

    // Nothing left to build: a no-op.
    repo.prebuild({ "jpegx8" });
    EXPECT_EQ(repo.size(), 3u);
    EXPECT_EQ(repo.builds(), 3u);
}

TEST(WorkloadRepo, ConcurrentCallersShareOneBuild)
{
    WorkloadRepo repo(WorkloadScale::Tiny, 4);
    constexpr int kCallers = 8;
    std::vector<const MediaWorkload *> got(kCallers, nullptr);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
        callers.emplace_back([&repo, &got, i] {
            got[static_cast<size_t>(i)] = repo.get("encode-heavy").get();
        });
    for (std::thread &t : callers)
        t.join();
    EXPECT_EQ(repo.builds(), 1u);
    ASSERT_NE(got[0], nullptr);
    for (const MediaWorkload *wl : got)
        EXPECT_EQ(wl, got[0]);
}

// Fingerprints of every registry mix plus paperx2 at tiny scale, as the
// serial build produced them before synthesis ran as a task graph. They
// key every persisted row, so they must hold on any thread count;
// decode-heavy (no encoders) pins the scratch-slot numbering.
TEST(WorkloadRepo, FingerprintsArePinnedOnAnyThreadCount)
{
    const std::pair<const char *, uint64_t> pinned[] = {
        { "paper", 0x2273390f56b18a9aull },
        { "decode-heavy", 0x92382377795bc96dull },
        { "encode-heavy", 0x952e1dcf90048f4eull },
        { "mpeg2x8", 0x93fb26ff7a435709ull },
        { "gsmx8", 0xe666643475fbbd8full },
        { "jpegx8", 0xba9cade43c0c6fc5ull },
        { "paperx2", 0xb6c1645f45ef61a5ull },
    };
    std::vector<std::string> names;
    for (const auto &[name, fp] : pinned)
        names.push_back(name);
    for (const WorkloadSpec &spec : WorkloadSpec::registry())
        EXPECT_EQ(std::count(names.begin(), names.end(), spec.name), 1)
            << spec.name << " has no pinned fingerprint";

    for (int jobs : { 1, 4 }) {
        WorkloadRepo repo(WorkloadScale::Tiny, jobs);
        repo.prebuild(names);
        for (const auto &[name, fp] : pinned)
            EXPECT_EQ(repo.fingerprintOf(name), fp)
                << name << " at --jobs " << jobs;
    }
    EXPECT_EQ(MediaWorkload::build(tinySpec("decode-heavy"))->fingerprint(),
              0x92382377795bc96dull);
}

// ---------------------------------------------------------------------------
// BuildPool
// ---------------------------------------------------------------------------

TEST(BuildPool, OneThreadRunsEveryTaskOnTheCallerInRankOrder)
{
    BuildGraph graph;
    std::vector<int> order;
    std::vector<std::thread::id> ran;
    auto task = [&](int tag) {
        return [&order, &ran, tag] {
            order.push_back(tag);
            ran.push_back(std::this_thread::get_id());
        };
    };
    BuildGraph::TaskId slow = graph.add(task(1), 1);
    BuildGraph::TaskId chain = graph.add(task(2), 0);
    BuildGraph::TaskId tail = graph.add(task(3), 0);
    graph.add(task(4), 1);
    graph.after(chain, tail);
    graph.after(slow, tail);
    BuildPool(1).run(graph);
    EXPECT_EQ(order, (std::vector<int> { 2, 1, 3, 4 }));
    for (std::thread::id id : ran)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(BuildPool, ConcurrentRunsShareTheThreadBudget)
{
    BuildPool pool(2);
    std::atomic<int> running { 0 };
    std::atomic<int> peak { 0 };
    auto work = [&running, &peak] {
        int now = ++running;
        for (int seen = peak.load(); now > seen &&
                                     !peak.compare_exchange_weak(seen, now);)
            ;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --running;
    };
    std::vector<BuildGraph> graphs(3);
    for (BuildGraph &g : graphs)
        for (int i = 0; i < 6; ++i)
            g.add(work, 0);
    std::vector<std::thread> callers;
    for (BuildGraph &g : graphs)
        callers.emplace_back([&pool, &g] { pool.run(g); });
    for (std::thread &t : callers)
        t.join();
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), 2);
}

TEST(BuildPool, AFailedTaskStopsTheGraphAndRethrows)
{
    BuildGraph graph;
    std::atomic<int> ran { 0 };
    BuildGraph::TaskId bad =
        graph.add([] { throw std::runtime_error("synthesis failed"); }, 0);
    BuildGraph::TaskId dependent = graph.add([&ran] { ++ran; }, 0);
    graph.after(bad, dependent);
    EXPECT_THROW(BuildPool(3).run(graph), std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
}

} // namespace
} // namespace momsim::workloads
