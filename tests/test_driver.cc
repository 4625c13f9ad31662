/**
 * @file
 * Tests for the experiment-runner subsystem: sweep-grid cartesian
 * expansion, seed stability, the CSV/JSON serializations of the result
 * sink, and the one sweep engine (ExperimentRunner on the
 * PointScheduler): heaviest-first dispatch, sweep-order splicing and
 * --jobs determinism.
 *
 * The load-bearing property is the determinism contract: the same sweep
 * must produce byte-identical aggregated output whether it runs on one
 * worker or many.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_sink.hh"
#include "driver/result_store.hh"
#include "tests/csv_test_util.hh"
#include "workloads/workload_repo.hh"

namespace momsim::driver
{
namespace
{

using isa::SimdIsa;

// ---------------------------------------------------------------------------
// The acceptance-criterion speedup check. Registered as its own serial
// CTest (driver_speedup) and filtered out of the main suite, because a
// loaded machine would make any timing assertion flaky.
TEST(SchedulerSpeedup, FourWorkersBeatOneOnMulticore)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have " << hw;

    constexpr size_t kPoints = 32;
    std::vector<ExperimentSpec> specs(kPoints);
    for (size_t i = 0; i < kPoints; ++i)
        specs[i].id = strfmt("spin%zu", i);
    PointScheduler::ExecFn spin =
        [](const std::vector<const ExperimentSpec *> &group) {
            volatile uint64_t acc = 0;
            for (uint64_t i = 0; i < 30'000'000ull; ++i)
                acc += i;
            return std::vector<ResultRow>(group.size());
        };
    // Distinct keys per run, so neither the row cache nor singleflight
    // answers a point without spinning.
    int run = 0;
    auto timed = [&](PointScheduler &sched) {
        auto t0 = std::chrono::steady_clock::now();
        PointScheduler::Request request(sched, spin,
                                        [](size_t, const ResultRow &) {});
        for (const ExperimentSpec &spec : specs)
            request.add(spec, strfmt("run%d/%s", run, spec.id.c_str()));
        request.wait();
        ++run;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    PointScheduler serial(PointScheduler::Config { 1, 0 });
    PointScheduler parallel(PointScheduler::Config { 4, 0 });
    timed(parallel);    // warm the workers before measuring
    double t1 = timed(serial);
    double t4 = timed(parallel);
    EXPECT_GT(t1 / t4, 2.0)
        << "1 worker " << t1 << "s vs 4 workers " << t4 << "s";
}

// ---------------------------------------------------------------------------
// SweepGrid
// ---------------------------------------------------------------------------

TEST(SweepGrid, DefaultsToOnePoint)
{
    SweepGrid grid;
    auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].id, "paper/MMX/1thr/conventional/RR");
    EXPECT_EQ(specs[0].simd, SimdIsa::Mmx);
    EXPECT_EQ(specs[0].threads, 1);
}

TEST(SweepGrid, WorkloadAxisSweepsOutermost)
{
    SweepGrid grid;
    EXPECT_FALSE(grid.hasExplicitWorkloads());
    grid.workloadSpecs({ "paper", "mpeg2x8" })
        .isas({ SimdIsa::Mmx, SimdIsa::Mom });
    EXPECT_TRUE(grid.hasExplicitWorkloads());
    EXPECT_EQ(grid.size(), 4u);
    auto specs = grid.expand(3);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].id, "paper/MMX/1thr/conventional/RR");
    EXPECT_EQ(specs[1].id, "paper/MOM/1thr/conventional/RR");
    EXPECT_EQ(specs[2].id, "mpeg2x8/MMX/1thr/conventional/RR");
    EXPECT_EQ(specs[3].id, "mpeg2x8/MOM/1thr/conventional/RR");
    EXPECT_EQ(specs[2].workload, "mpeg2x8");
    // Seeds derive from the workload-qualified identity.
    EXPECT_NE(specs[0].seed, specs[2].seed);
}

TEST(SweepGrid, CartesianExpansionNestsAxes)
{
    SweepGrid grid;
    grid.isas({ SimdIsa::Mmx, SimdIsa::Mom })
        .threadCounts({ 1, 2, 4 })
        .memModels({ mem::MemModel::Perfect, mem::MemModel::Conventional })
        .policies({ cpu::FetchPolicy::RoundRobin,
                    cpu::FetchPolicy::ICount });
    EXPECT_EQ(grid.size(), 24u);
    auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 24u);
    // isa outermost: first half MMX, second half MOM.
    EXPECT_EQ(specs[0].simd, SimdIsa::Mmx);
    EXPECT_EQ(specs[12].simd, SimdIsa::Mom);
    // policy innermost: alternates fastest.
    EXPECT_EQ(specs[0].policy, cpu::FetchPolicy::RoundRobin);
    EXPECT_EQ(specs[1].policy, cpu::FetchPolicy::ICount);
    EXPECT_EQ(specs[0].id, "paper/MMX/1thr/perfect/RR");
    EXPECT_EQ(specs[23].id, "paper/MOM/4thr/conventional/IC");
    // Every id unique.
    for (size_t i = 0; i < specs.size(); ++i)
        for (size_t j = i + 1; j < specs.size(); ++j)
            ASSERT_NE(specs[i].id, specs[j].id);
}

TEST(SweepGrid, SkipDropsPointsWithoutShiftingSeeds)
{
    SweepGrid grid;
    grid.isas({ SimdIsa::Mmx, SimdIsa::Mom })
        .policies({ cpu::FetchPolicy::RoundRobin,
                    cpu::FetchPolicy::OCount });
    auto full = grid.expand(42);

    grid.skip([](const ExperimentSpec &s) {
        return s.simd == SimdIsa::Mmx &&
               s.policy == cpu::FetchPolicy::OCount;
    });
    auto filtered = grid.expand(42);
    ASSERT_EQ(full.size(), 4u);
    ASSERT_EQ(filtered.size(), 3u);
    // Surviving specs keep the identical identity-derived seeds.
    for (const auto &spec : filtered) {
        bool found = false;
        for (const auto &ref : full) {
            if (ref.id == spec.id) {
                EXPECT_EQ(ref.seed, spec.seed);
                found = true;
            }
        }
        EXPECT_TRUE(found) << spec.id;
    }
}

TEST(SweepGrid, VariantsCrossIntoTheProduct)
{
    SweepGrid grid;
    grid.threadCounts({ 1, 2 })
        .variants({
            { "win16",
              [](ExperimentSpec &s) {
                  s.tweakCore = [](cpu::CoreConfig &c) {
                      c.windowPerThread = 16;
                  };
              } },
            { "win64",
              [](ExperimentSpec &s) {
                  s.tweakCore = [](cpu::CoreConfig &c) {
                      c.windowPerThread = 64;
                  };
              } },
        });
    auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].id, "paper/MMX/1thr/conventional/RR/win16");
    EXPECT_EQ(specs[1].id, "paper/MMX/1thr/conventional/RR/win64");
    EXPECT_EQ(specs[2].id, "paper/MMX/2thr/conventional/RR/win16");
    ASSERT_TRUE(specs[0].tweakCore);
    cpu::CoreConfig cfg;
    specs[0].tweakCore(cfg);
    EXPECT_EQ(cfg.windowPerThread, 16);
}

TEST(SweepGrid, SeedsAreStableAndPerTaskDistinct)
{
    SweepGrid grid;
    grid.threadCounts({ 1, 2, 4, 8 });
    auto a = grid.expand(7);
    auto b = grid.expand(7);
    auto c = grid.expand(8);
    ASSERT_EQ(a.size(), 4u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_NE(a[i].seed, c[i].seed);    // base seed participates
        for (size_t j = i + 1; j < a.size(); ++j)
            EXPECT_NE(a[i].seed, a[j].seed);
    }
}

TEST(SweepGrid, LimitsPropagate)
{
    SweepGrid grid;
    grid.limits(3, 1000);
    auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].targetCompletions, 3);
    EXPECT_EQ(specs[0].maxCycles, 1000u);
}

// ---------------------------------------------------------------------------
// ResultSink serialization goldens
// ---------------------------------------------------------------------------

ResultRow
makeRow(const std::string &id, SimdIsa simd, int threads,
        cpu::FetchPolicy policy)
{
    ResultRow row;
    row.id = id;
    row.simd = simd;
    row.threads = threads;
    row.memModel = mem::MemModel::Conventional;
    row.policy = policy;
    row.seed = 99;
    row.run.cycles = 1000;
    row.run.committedEq = 2500;
    row.run.ipc = 2.5;
    row.run.eipc = 3.125;
    row.run.l1HitRate = 0.984;
    row.run.icacheHitRate = 0.999;
    row.run.l1AvgLatency = 1.39;
    row.run.mispredicts = 42;
    row.run.condBranches = 420;
    row.run.completions = 8;
    row.headline = ResultSink::headlineOf(row.run, simd);
    row.workload = "paper";
    row.run.simKcps = 881.3;    // schema v4: serialized as tail columns
    row.run.wallMs = 2.27;
    row.wallMs = 123.0;     // must never appear in serializations
    return row;
}

TEST(ResultSink, CsvGolden)
{
    ResultSink sink;
    sink.append(makeRow("MMX/1thr/conventional/RR", SimdIsa::Mmx, 1,
                        cpu::FetchPolicy::RoundRobin));
    sink.append(makeRow("MOM/8thr/conventional/IC", SimdIsa::Mom, 8,
                        cpu::FetchPolicy::ICount));
    EXPECT_EQ(
        sink.toCsv(),
        "id,workload,isa,threads,mem,policy,variant,seed,cycles,"
        "committed_eq,ipc,eipc,headline,l1_hit_rate,icache_hit_rate,"
        "l1_avg_latency,mispredicts,cond_branches,completions,"
        "hit_cycle_limit,sim_kcps,wall_ms\n"
        "MMX/1thr/conventional/RR,paper,MMX,1,conventional,RR,,99,1000,"
        "2500,2.5,3.125,2.5,0.984,0.999,1.39,42,420,8,0,881.3,2.27\n"
        "MOM/8thr/conventional/IC,paper,MOM,8,conventional,IC,,99,1000,"
        "2500,2.5,3.125,3.125,0.984,0.999,1.39,42,420,8,0,881.3,2.27\n");
}

TEST(ResultSink, JsonGolden)
{
    ResultSink sink;
    sink.append(makeRow("MMX/1thr/conventional/RR", SimdIsa::Mmx, 1,
                        cpu::FetchPolicy::RoundRobin));
    EXPECT_EQ(
        sink.toJson(),
        "[\n"
        "  {\"id\":\"MMX/1thr/conventional/RR\",\"workload\":\"paper\","
        "\"isa\":\"MMX\","
        "\"threads\":1,\"mem\":\"conventional\",\"policy\":\"RR\","
        "\"variant\":\"\",\"seed\":99,\"cycles\":1000,"
        "\"committed_eq\":2500,\"ipc\":2.5,\"eipc\":3.125,"
        "\"headline\":2.5,\"l1_hit_rate\":0.984,"
        "\"icache_hit_rate\":0.999,\"l1_avg_latency\":1.39,"
        "\"mispredicts\":42,\"cond_branches\":420,\"completions\":8,"
        "\"hit_cycle_limit\":false,\"sim_kcps\":881.3,"
        "\"wall_ms\":2.27}\n"
        "]\n");
}

TEST(ResultSink, CsvQuotesFieldsThatNeedIt)
{
    ResultRow row = makeRow("a,b", SimdIsa::Mmx, 1,
                            cpu::FetchPolicy::RoundRobin);
    row.variant = "quote\"y";
    ResultSink sink;
    sink.append(row);
    std::string csv = sink.toCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"y\""), std::string::npos);
}

TEST(ResultSink, FindAndHeadlineAt)
{
    ResultSink sink;
    sink.append(makeRow("MMX/1thr/conventional/RR", SimdIsa::Mmx, 1,
                        cpu::FetchPolicy::RoundRobin));
    EXPECT_NE(sink.find(SimdIsa::Mmx, 1, mem::MemModel::Conventional,
                        cpu::FetchPolicy::RoundRobin),
              nullptr);
    EXPECT_EQ(sink.find(SimdIsa::Mom, 1, mem::MemModel::Conventional,
                        cpu::FetchPolicy::RoundRobin),
              nullptr);
    EXPECT_DOUBLE_EQ(
        sink.headlineAt(SimdIsa::Mmx, 1, mem::MemModel::Conventional,
                        cpu::FetchPolicy::RoundRobin),
        2.5);
    // Skipped points read back as 0.0 — what the benches print.
    EXPECT_DOUBLE_EQ(
        sink.headlineAt(SimdIsa::Mmx, 8, mem::MemModel::Conventional,
                        cpu::FetchPolicy::OCount),
        0.0);
}

TEST(ResultSink, GeomeanAndRule)
{
    EXPECT_DOUBLE_EQ(ResultSink::geomean({ 2.0, 8.0 }), 4.0);
    EXPECT_DOUBLE_EQ(ResultSink::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(ResultSink::geomean({ 1.0, 0.0 }), 0.0);
    EXPECT_EQ(ResultSink::rule(4), "----");
    EXPECT_EQ(ResultSink::rule(3, '='), "===");
}

// ---------------------------------------------------------------------------
// The sweep engine: ExperimentRunner on the PointScheduler
// ---------------------------------------------------------------------------

workloads::WorkloadRepo &
tinyRepo()
{
    static workloads::WorkloadRepo repo(workloads::WorkloadScale::Tiny);
    return repo;
}

SweepGrid
integrationGrid()
{
    SweepGrid grid;
    grid.isas({ SimdIsa::Mmx, SimdIsa::Mom })
        .threadCounts({ 1, 2 })
        .memModels({ mem::MemModel::Perfect,
                     mem::MemModel::Conventional })
        .policies({ cpu::FetchPolicy::RoundRobin,
                    cpu::FetchPolicy::ICount });
    return grid;
}

/** Plan @p grid against the tiny repo and run it on @p workers. */
ResultSink
runGrid(const SweepGrid &grid, uint64_t seed, int workers)
{
    PointScheduler sched(PointScheduler::Config { workers });
    ExperimentRunner runner(tinyRepo(), sched);
    return runner.run(planSweep(grid.expand(seed), tinyRepo()));
}

using testutil::stripSelfMeasurement;

TEST(ExperimentRunner, SameSeedsSameStatsRegardlessOfThreadCount)
{
    SweepGrid grid = integrationGrid();

    ResultSink a = runGrid(grid, 1234, 1);
    ResultSink b = runGrid(grid, 1234, 4);

    ASSERT_EQ(a.size(), 16u);
    ASSERT_EQ(a.size(), b.size());
    // Every simulation-result column must match byte for byte; only
    // the two self-measurement tail columns may differ between runs.
    EXPECT_EQ(stripSelfMeasurement(a.toCsv()),
              stripSelfMeasurement(b.toCsv()));
    // And the structured results too, field by field.
    for (size_t i = 0; i < a.size(); ++i) {
        const ResultRow &ra = a.rows()[i], &rb = b.rows()[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.seed, rb.seed);
        EXPECT_EQ(ra.run.cycles, rb.run.cycles);
        EXPECT_EQ(ra.run.committedEq, rb.run.committedEq);
        EXPECT_DOUBLE_EQ(ra.run.ipc, rb.run.ipc);
        EXPECT_DOUBLE_EQ(ra.run.eipc, rb.run.eipc);
        EXPECT_EQ(ra.run.mispredicts, rb.run.mispredicts);
    }
    // Sanity: the simulations actually ran.
    for (const ResultRow &row : a.rows()) {
        EXPECT_GT(row.run.cycles, 0u) << row.id;
        EXPECT_GT(row.headline, 0.0) << row.id;
    }
}

TEST(ExperimentRunner, CycleLimitSurfacesAsRowDataNotStderr)
{
    SweepGrid grid;
    grid.limits(-1, 50);    // far too few cycles to finish the rotation
    auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 1u);

    PointScheduler sched(PointScheduler::Config { 1 });
    ExperimentRunner runner(tinyRepo(), sched);
    ResultRow row = runner.runOne(specs[0]);
    EXPECT_TRUE(row.run.hitCycleLimit);
    EXPECT_LT(row.run.completions, 8);

    ResultSink sink;
    sink.append(row);
    // hit_cycle_limit=1 sits right after the completions column (the
    // schema-v4 self-measurement columns follow it).
    EXPECT_NE(sink.toCsv().find(strfmt(",%d,1,", row.run.completions)),
              std::string::npos);
    EXPECT_NE(sink.toJson().find("\"hit_cycle_limit\":true"),
              std::string::npos);
}

TEST(ExperimentRunner, RunOneMatchesScheduledRun)
{
    SweepGrid grid;
    grid.threadCounts({ 2 });
    auto specs = grid.expand(5);
    ASSERT_EQ(specs.size(), 1u);

    PointScheduler sched(PointScheduler::Config { 2 });
    ExperimentRunner runner(tinyRepo(), sched);
    ResultRow direct = runner.runOne(specs[0]);
    ResultSink scheduled = runner.run(planSweep(specs, tinyRepo()));
    ASSERT_EQ(scheduled.size(), 1u);
    EXPECT_EQ(direct.run.cycles, scheduled.rows()[0].run.cycles);
    EXPECT_DOUBLE_EQ(direct.run.ipc, scheduled.rows()[0].run.ipc);
}

TEST(ExperimentRunner, QueuesHeaviestPointsFirstAndSplicesInSweepOrder)
{
    // Thread counts ascend in sweep order, so costs do too: a FIFO
    // lane would run the cheapest point first. One worker makes the
    // completion order the dispatch order.
    SweepGrid grid;
    grid.threadCounts({ 1, 2, 4 })
        .memModels({ mem::MemModel::Perfect,
                     mem::MemModel::Conventional })
        .limits(-1, 20000);
    RunPlan plan = planSweep(grid.expand(7), tinyRepo());
    ASSERT_EQ(plan.points.size(), 6u);

    PointScheduler sched(PointScheduler::Config { 1, 0 });
    ExperimentRunner runner(tinyRepo(), sched);
    std::vector<double> costs;
    std::vector<std::string> completed;
    ResultSink sink = runner.run(
        plan, nullptr, [&](const PlannedPoint &p, const ResultRow &row) {
            costs.push_back(p.cost);
            completed.push_back(row.id);
        });

    ASSERT_EQ(costs.size(), plan.points.size());
    for (size_t i = 1; i < costs.size(); ++i)
        EXPECT_GE(costs[i - 1], costs[i]) << "completion " << i;
    EXPECT_EQ(completed.front(), "paper/MMX/4thr/conventional/RR");
    EXPECT_EQ(completed.back(), "paper/MMX/1thr/perfect/RR");

    ASSERT_EQ(sink.size(), plan.points.size());
    for (size_t i = 0; i < plan.points.size(); ++i)
        EXPECT_EQ(sink.rows()[i].id, plan.points[i].spec.id) << i;
}

} // namespace
} // namespace momsim::driver
