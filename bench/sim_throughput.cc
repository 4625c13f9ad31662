/**
 * @file
 * Simulator-throughput microbench: how many simulated megacycles per
 * wall second the kernel sustains across ISA x thread-count, under the
 * conventional hierarchy (the shape of the paper's main sweeps).
 * Registered as `momsim sim_throughput`.
 *
 * This measures the *simulator*, not the simulated machine: the numbers
 * come from each run's self-measurement (RunResult.simKcps, serialized
 * with every row since schema v4), so `--json` emits a machine-readable
 * perf trajectory — CI uploads exactly that as a build artifact.
 *
 * Unlike the figure benches, this stdout is intentionally NOT
 * byte-stable across runs (it prints wall-clock numbers); never add it
 * to the byte-equivalence CTest gates (cli_equivalence skips it).
 * Combining with --cache-dir replays *old* measurements for cached
 * points — meaningful for a trajectory, useless for benchmarking this
 * build.
 */

#include <cstdio>

#include "driver/point_scheduler.hh"
#include "svc/bench_registry.hh"

namespace momsim::svc
{

BenchDef
makeSimThroughputDef()
{
    using driver::ResultRow;
    using driver::ResultSink;
    using driver::SweepGrid;

    BenchDef def;
    def.name = "sim_throughput";
    def.oldBinary = "bench_sim_throughput";
    def.summary = "Simulator-kernel Mcycles/s microbench (not "
                  "byte-stable)";
    def.grid = [](const driver::BenchOptions &) {
        SweepGrid grid;
        grid.isas({ isa::SimdIsa::Mmx, isa::SimdIsa::Mom })
            .threadCounts({ 1, 2, 4, 8 })
            .memModels({ mem::MemModel::Conventional })
            .policies({ cpu::FetchPolicy::RoundRobin });
        return grid;
    };
    def.print = [](driver::BenchHarness &bench, const ResultSink &all) {
        std::printf("Simulation-kernel throughput (conventional "
                    "hierarchy, RR fetch)\n");
        // The worker count this process measured with: rows are
        // byte-identical at any --jobs but wall times are not, so the
        // summary row names it for cross-run comparison.
        const int jobs = bench.runner().scheduler().workers();
        bench.perWorkload(all, [jobs](const ResultSink &sink,
                                      const std::string &) {
            std::printf("%-6s %-8s | %12s %9s %10s\n", "isa", "threads",
                        "sim Mcycles", "wall ms", "Mcycles/s");
            std::printf("%s\n", ResultSink::rule(52).c_str());
            double totalMcycles = 0.0, totalWallMs = 0.0;
            for (const ResultRow &r : sink.rows()) {
                double mcycles = static_cast<double>(r.run.cycles) / 1e6;
                totalMcycles += mcycles;
                totalWallMs += r.run.wallMs;
                std::printf("%-6s %-8d | %12.2f %9.0f %10.2f\n",
                            isa::toString(r.simd), r.threads, mcycles,
                            r.run.wallMs, r.run.simKcps / 1000.0);
            }
            std::printf("%s\n", ResultSink::rule(52).c_str());
            double aggregate = totalWallMs > 0.0
                ? totalMcycles / (totalWallMs / 1000.0)
                : 0.0;
            std::printf("%-15s | %12.2f %9.0f %10.2f\n", "aggregate",
                        totalMcycles, totalWallMs, aggregate);
            std::string mode = strfmt("jobs=%d", jobs);
            std::printf("%-15s | %12s %9s %10.2f\n", mode.c_str(), "",
                        "", aggregate);
        });
        std::printf("(simulator self-measurement; see README \"Kernel "
                    "performance\" for the tracked trajectory)\n");
    };
    return def;
}

} // namespace momsim::svc
