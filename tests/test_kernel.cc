/**
 * @file
 * Tests for the simulation kernel's throughput machinery: the
 * readiness-tracking issue queues (pending-producer counts, wakeup
 * lists, generation-tagged records surviving flush/slot recycling),
 * queue-saturation stall/resume, and the idle fast-forward — including
 * the load-bearing differential property that fast-forward on/off
 * produces bit-identical results.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/simulation.hh"
#include "cpu/smt_core.hh"
#include "trace/builder.hh"
#include "trace/mom_emitter.hh"
#include "trace/scalar_emitter.hh"

namespace momsim::cpu
{
namespace
{

using trace::IVal;
using trace::MomEmitter;
using trace::Program;
using trace::ScalarEmitter;
using trace::SVal;
using trace::TraceBuilder;

constexpr uint32_t kBase = 16u << 20;

uint64_t
runCore(const Program &prog, CoreConfig cfg, mem::MemModel model,
        uint64_t *commits = nullptr, SmtCore **coreOut = nullptr,
        std::unique_ptr<SmtCore> *keep = nullptr,
        std::unique_ptr<mem::MemorySystem> *keepMem = nullptr)
{
    auto mem = mem::makeMemorySystem(model);
    auto core = std::make_unique<SmtCore>(cfg, *mem);
    for (int tid = 0; tid < cfg.numThreads; ++tid)
        core->attachProgram(tid, &prog);
    auto allIdle = [&] {
        for (int tid = 0; tid < cfg.numThreads; ++tid) {
            if (!core->threadIdle(tid))
                return false;
        }
        return true;
    };
    while (!allIdle() && core->now() < 3'000'000)
        core->step();
    EXPECT_LT(core->now(), 3'000'000u) << "core appears hung";
    if (commits)
        *commits = core->committedRecords();
    uint64_t cycles = core->now();
    if (coreOut)
        *coreOut = core.get();
    if (keep) {
        *keep = std::move(core);
        *keepMem = std::move(mem);
    }
    return cycles;
}

// ---------------------------------------------------------------------------
// Readiness machinery
// ---------------------------------------------------------------------------

TEST(KernelReadiness, GraduatedAndRecycledProducersReadImmediatelyReady)
{
    // A producer whose ROB slot has long been recycled by younger
    // instructions (window 16, ~100 fillers in between) must read as
    // ready at the consumer's dispatch — the consumer registers no
    // waiter and issues immediately.
    TraceBuilder tb("recycle", isa::SimdIsa::Mmx, kBase);
    ScalarEmitter s(tb);
    IVal r = s.imm(7);
    for (int i = 0; i < 100; ++i)
        s.imm(i);
    IVal c = s.addi(r, 1);      // producer graduated ~90 entries ago
    c = s.addi(c, 1);
    Program p = tb.take();

    CoreConfig cfg = CoreConfig::preset(1, isa::SimdIsa::Mmx);
    cfg.windowPerThread = 16;
    uint64_t commits = 0;
    uint64_t withFf = runCore(p, cfg, mem::MemModel::Perfect, &commits);
    EXPECT_EQ(commits, p.size());

    cfg.enableFastForward = false;
    uint64_t withoutFf = runCore(p, cfg, mem::MemModel::Perfect, &commits);
    EXPECT_EQ(commits, p.size());
    EXPECT_EQ(withFf, withoutFf);
}

TEST(KernelReadiness, WakeupsSurviveFlushAndSlotReuse)
{
    // Dependence chains crossing randomly mispredicted branches: every
    // flush rolls the tail back and re-dispatches the same positions
    // with fresh generation tags, so wakeup records from the squashed
    // era must stay inert (a stale record double-decrementing a
    // pending-producer count would issue instructions early and change
    // cycle counts, or wedge the machine). Conventional memory keeps
    // producers in flight long enough for consumers to register.
    TraceBuilder tb("flushwake", isa::SimdIsa::Mmx, kBase);
    ScalarEmitter s(tb);
    uint32_t buf = tb.alloc(1 << 16);
    IVal base = s.imm(static_cast<int32_t>(buf));
    IVal acc = s.imm(0);
    uint32_t lfsr = 0xC0DE;
    for (int i = 0; i < 600; ++i) {
        IVal v = s.loadI32(base, (i * 64) % (1 << 16));
        acc = s.add(acc, v);            // consumer of an in-flight load
        s.condBr(acc, (lfsr & 1) != 0); // random: mispredicts + flushes
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        acc = s.addi(acc, 1);           // re-dispatched after each flush
    }
    Program p = tb.take();

    CoreConfig cfg = CoreConfig::preset(1, isa::SimdIsa::Mmx);
    cfg.windowPerThread = 16;           // recycle slots aggressively
    uint64_t commits = 0;
    uint64_t withFf =
        runCore(p, cfg, mem::MemModel::Conventional, &commits);
    EXPECT_EQ(commits, p.size());

    cfg.enableFastForward = false;
    uint64_t withoutFf =
        runCore(p, cfg, mem::MemModel::Conventional, &commits);
    EXPECT_EQ(commits, p.size());
    EXPECT_EQ(withFf, withoutFf);
}

TEST(KernelReadiness, QueueSaturationStallsDispatchThenResumes)
{
    // Chained fp divides serialize on the unpipelined divider while
    // independent fp work floods the 12-entry fp queue: dispatch must
    // hit iqFullStalls, then drain and commit everything.
    TraceBuilder tb("sat", isa::SimdIsa::Mmx, kBase);
    ScalarEmitter s(tb);
    trace::FVal d = s.fconst(3.0f);
    for (int i = 0; i < 40; ++i) {
        d = s.fdiv(d, s.fconst(1.01f));
        for (int k = 0; k < 6; ++k)
            s.fconst(static_cast<float>(k));    // independent fp ops
    }
    Program p = tb.take();

    CoreConfig cfg = CoreConfig::preset(1, isa::SimdIsa::Mmx);
    std::unique_ptr<SmtCore> core;
    std::unique_ptr<mem::MemorySystem> mem;
    uint64_t commits = 0;
    SmtCore *raw = nullptr;
    runCore(p, cfg, mem::MemModel::Perfect, &commits, &raw, &core, &mem);
    EXPECT_EQ(commits, p.size());
    EXPECT_GT(core->stats().get("iqFullStalls"), 0u)
        << "fp queue never saturated; the stall/resume path went untested";
}

// ---------------------------------------------------------------------------
// Idle fast-forward
// ---------------------------------------------------------------------------

TEST(KernelFastForward, EngagesOnMemoryBoundChains)
{
    // A serial chain of dependent cache-missing loads leaves the core
    // with nothing to do for most of each miss: fast-forward must
    // actually skip cycles (otherwise the throughput claim is hollow).
    TraceBuilder tb("chase", isa::SimdIsa::Mmx, kBase);
    ScalarEmitter s(tb);
    uint32_t buf = tb.alloc(1 << 20);
    IVal base = s.imm(static_cast<int32_t>(buf));
    IVal acc = s.imm(0);
    for (int i = 0; i < 300; ++i)
        acc = s.add(acc, s.loadI32(base, (i * 4096) % (1 << 20)));
    Program p = tb.take();

    CoreConfig cfg = CoreConfig::preset(1, isa::SimdIsa::Mmx);
    std::unique_ptr<SmtCore> core;
    std::unique_ptr<mem::MemorySystem> mem;
    uint64_t commits = 0;
    SmtCore *raw = nullptr;
    runCore(p, cfg, mem::MemModel::Conventional, &commits, &raw, &core,
            &mem);
    EXPECT_EQ(commits, p.size());
    EXPECT_GT(core->stats().get("idleCyclesSkipped"), 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential: fast-forward on/off, identical RunResult
// ---------------------------------------------------------------------------

/** A seed-dependent mix of chains, branches, memory and (MOM) streams. */
Program
randomProgram(uint32_t seed, isa::SimdIsa simdIsa)
{
    TraceBuilder tb("rand", simdIsa, kBase);
    ScalarEmitter s(tb);
    std::unique_ptr<MomEmitter> mv;
    uint32_t buf = tb.alloc(1 << 16);
    IVal base = s.imm(static_cast<int32_t>(buf));
    if (simdIsa == isa::SimdIsa::Mom) {
        mv = std::make_unique<MomEmitter>(tb);
        mv->setLen(s.imm(8));
    }
    uint32_t lfsr = seed | 1;
    auto step = [&lfsr]() {
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        return lfsr;
    };
    IVal acc = s.imm(1);
    trace::FVal f = s.fconst(2.0f);
    for (int i = 0; i < 350; ++i) {
        switch (step() % 8) {
          case 0:
            acc = s.addi(acc, 1);
            break;
          case 1:
            s.imm(i);
            break;
          case 2:
            acc = s.add(acc,
                        s.loadI32(base, static_cast<int>(
                            (step() % 1024) * 4)));
            break;
          case 3:
            s.storeI32(base, static_cast<int>((step() % 512) * 8), acc);
            break;
          case 4:
            s.condBr(acc, (step() & 1) != 0);
            break;
          case 5:
            f = s.fdiv(f, s.fconst(1.5f));
            break;
          case 6:
            if (mv) {
                int slot = static_cast<int>(step() % 64);
                SVal v = mv->loadQ(base, slot * 128, 8);
                mv->storeQ(base, 32768 + slot * 128, 8, v);
            } else {
                acc = s.div(s.imm(1000 + i), acc);
            }
            break;
          case 7:
            acc = s.add(acc, s.imm(static_cast<int>(step() % 97)));
            break;
        }
    }
    return tb.take();
}

struct DiffOutcome
{
    core::RunResult run;
    uint64_t robFullStalls = 0;
    uint64_t iqFullStalls = 0;
    uint64_t regFullStalls = 0;
};

DiffOutcome
runSimulation(const Program &prog, int threads, isa::SimdIsa simdIsa,
              mem::MemModel model, bool fastForward)
{
    std::vector<core::WorkloadProgram> rotation(
        static_cast<size_t>(threads) + 2,
        core::WorkloadProgram{ &prog, prog.mix().eqInsts });
    CoreConfig cfg = CoreConfig::preset(threads, simdIsa);
    cfg.enableFastForward = fastForward;
    core::Simulation sim(cfg, model, rotation);
    DiffOutcome out;
    out.run = sim.run(-1, 3'000'000);
    out.robFullStalls = sim.coreRef().stats().get("robFullStalls");
    out.iqFullStalls = sim.coreRef().stats().get("iqFullStalls");
    out.regFullStalls = sim.coreRef().stats().get("regFullStalls");
    return out;
}

TEST(KernelFastForward, RandomizedDifferentialIsBitIdentical)
{
    for (uint32_t seed : { 0xACE1u, 0xBEEFu, 0x1234u }) {
        for (isa::SimdIsa simdIsa :
             { isa::SimdIsa::Mmx, isa::SimdIsa::Mom }) {
            Program p = randomProgram(seed, simdIsa);
            for (int threads : { 1, 4 }) {
                for (mem::MemModel model :
                     { mem::MemModel::Perfect,
                       mem::MemModel::Conventional }) {
                    SCOPED_TRACE(testing::Message()
                                 << "seed=" << seed << " isa="
                                 << isa::toString(simdIsa) << " threads="
                                 << threads << " mem="
                                 << mem::toString(model));
                    DiffOutcome on =
                        runSimulation(p, threads, simdIsa, model, true);
                    DiffOutcome off =
                        runSimulation(p, threads, simdIsa, model, false);
                    EXPECT_FALSE(on.run.hitCycleLimit);
                    EXPECT_EQ(on.run.cycles, off.run.cycles);
                    EXPECT_EQ(on.run.committedEq, off.run.committedEq);
                    EXPECT_EQ(on.run.ipc, off.run.ipc);
                    EXPECT_EQ(on.run.eipc, off.run.eipc);
                    EXPECT_EQ(on.run.l1HitRate, off.run.l1HitRate);
                    EXPECT_EQ(on.run.icacheHitRate,
                              off.run.icacheHitRate);
                    EXPECT_EQ(on.run.l1AvgLatency, off.run.l1AvgLatency);
                    EXPECT_EQ(on.run.mispredicts, off.run.mispredicts);
                    EXPECT_EQ(on.run.condBranches, off.run.condBranches);
                    EXPECT_EQ(on.run.completions, off.run.completions);
                    EXPECT_EQ(on.run.hitCycleLimit,
                              off.run.hitCycleLimit);
                    // The skipped no-op cycles must replay their
                    // dispatch-stall accounting exactly.
                    EXPECT_EQ(on.robFullStalls, off.robFullStalls);
                    EXPECT_EQ(on.iqFullStalls, off.iqFullStalls);
                    EXPECT_EQ(on.regFullStalls, off.regFullStalls);
                }
            }
        }
    }
}

/** Every deterministic RunResult field (not the self-measurement). */
void
expectSameRun(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedEq, b.committedEq);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.eipc, b.eipc);
    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.icacheHitRate, b.icacheHitRate);
    EXPECT_EQ(a.l1AvgLatency, b.l1AvgLatency);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit);
}

TEST(KernelResumable, ChunkedAdvanceIsBitIdenticalToOneRun)
{
    // The foundation of ExperimentRunner::runOne: slicing a run into
    // begin()/advance(budget)/finish() — at any budget, down to one
    // cycle — must reproduce run()'s RunResult bit for bit.
    for (uint32_t seed : { 0xACE1u, 0x5EEDu }) {
        for (mem::MemModel model :
             { mem::MemModel::Perfect, mem::MemModel::Conventional }) {
            Program p = randomProgram(seed, isa::SimdIsa::Mmx);
            std::vector<core::WorkloadProgram> rotation(
                4, core::WorkloadProgram{ &p, p.mix().eqInsts });
            CoreConfig cfg = CoreConfig::preset(2, isa::SimdIsa::Mmx);
            core::Simulation whole(cfg, model, rotation);
            core::RunResult ref = whole.run(-1, 3'000'000);
            ASSERT_FALSE(ref.hitCycleLimit);

            for (uint64_t budget : { uint64_t(1), uint64_t(777),
                                     uint64_t(32768) }) {
                SCOPED_TRACE(testing::Message()
                             << "seed=" << seed << " mem="
                             << mem::toString(model) << " budget="
                             << budget);
                core::Simulation sliced(cfg, model, rotation);
                sliced.begin(-1, 3'000'000);
                int slices = 0;
                while (!sliced.advance(budget))
                    ++slices;
                EXPECT_TRUE(sliced.done());
                expectSameRun(sliced.finish(), ref);
                if (budget < ref.cycles)
                    EXPECT_GT(slices, 0) << "budget never sliced the run";
            }
        }
    }
}

TEST(KernelLayout, ColumnInvariantsHoldThroughFlushHeavyRuns)
{
    // debugLayoutIssue() cross-checks the structure-of-arrays hot
    // columns against the cold records mid-flight: slot mapping, state
    // vs inst/generation consistency, queue references, per-thread
    // queue counts and waiter generation ranges. Probe it repeatedly
    // through runs with flushes and slot recycling, in both ISAs.
    for (isa::SimdIsa simdIsa : { isa::SimdIsa::Mmx, isa::SimdIsa::Mom }) {
        Program p = randomProgram(0xF1CEu, simdIsa);
        CoreConfig cfg = CoreConfig::preset(2, simdIsa);
        cfg.windowPerThread = 16;       // recycle slots aggressively
        auto mem = mem::makeMemorySystem(mem::MemModel::Conventional);
        SmtCore core(cfg, *mem);
        for (int tid = 0; tid < cfg.numThreads; ++tid)
            core.attachProgram(tid, &p);
        auto allIdle = [&] {
            for (int tid = 0; tid < cfg.numThreads; ++tid) {
                if (!core.threadIdle(tid))
                    return false;
            }
            return true;
        };
        int checks = 0;
        while (!allIdle() && core.now() < 3'000'000) {
            core.step();
            if (core.committedRecords() % 64 == 0) {
                std::string issue = core.debugLayoutIssue();
                ASSERT_TRUE(issue.empty())
                    << isa::toString(simdIsa) << " @" << core.now()
                    << ": " << issue;
                ++checks;
            }
        }
        EXPECT_TRUE(allIdle()) << "core appears hung";
        EXPECT_GT(checks, 0);
        // And at quiescence, when every slot should read Empty.
        std::string finalIssue = core.debugLayoutIssue();
        EXPECT_TRUE(finalIssue.empty()) << finalIssue;
    }
}

TEST(KernelFastForward, EmptyProgramsInTheRotationStillComplete)
{
    // A zero-instruction program is idle without ever committing; the
    // commit-gated idle scan must still detect it (regression: the
    // scan-skip optimization once made such a rotation spin to the
    // cycle limit with completions=0).
    Program work = randomProgram(0x5150u, isa::SimdIsa::Mmx);
    Program empty("empty", isa::SimdIsa::Mmx);
    std::vector<core::WorkloadProgram> rotation {
        { &empty, 0 },
        { &work, work.mix().eqInsts },
        { &empty, 0 },
        { &work, work.mix().eqInsts },
    };
    CoreConfig cfg = CoreConfig::preset(2, isa::SimdIsa::Mmx);
    core::Simulation sim(cfg, mem::MemModel::Perfect, rotation);
    core::RunResult run = sim.run(-1, 3'000'000);
    EXPECT_FALSE(run.hitCycleLimit);
    EXPECT_EQ(run.completions, 4);
}

TEST(KernelFastForward, CycleLimitIsExactUnderFastForward)
{
    // A capped run must stop at exactly the configured cycle, not
    // overshoot it by a fast-forward jump.
    Program p = randomProgram(0x7777u, isa::SimdIsa::Mmx);
    std::vector<core::WorkloadProgram> rotation(
        8, core::WorkloadProgram{ &p, p.mix().eqInsts });
    CoreConfig cfg = CoreConfig::preset(1, isa::SimdIsa::Mmx);
    core::Simulation sim(cfg, mem::MemModel::Conventional, rotation);
    core::RunResult run = sim.run(-1, 500);
    EXPECT_TRUE(run.hitCycleLimit);
    EXPECT_EQ(run.cycles, 500u);
}

} // namespace
} // namespace momsim::cpu
