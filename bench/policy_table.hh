/**
 * @file
 * The fetch-policy table shared by Figure 6 (conventional hierarchy)
 * and Figure 8 (decoupled hierarchy): RR / ICOUNT / OCOUNT / BALANCE
 * per ISA and thread count, with the best-over-RR gain column.
 */

#ifndef MOMSIM_BENCH_POLICY_TABLE_HH
#define MOMSIM_BENCH_POLICY_TABLE_HH

#include <algorithm>
#include <cstdio>

#include "driver/bench_harness.hh"

namespace momsim::bench
{

/** The full policy axis; OCOUNT points are absent on MMX machines. */
inline driver::SweepGrid
policyGrid(mem::MemModel memModel)
{
    driver::SweepGrid grid;
    grid.isas({ isa::SimdIsa::Mmx, isa::SimdIsa::Mom })
        .threadCounts({ 1, 2, 4, 8 })
        .memModels({ memModel })
        .policies({ cpu::FetchPolicy::RoundRobin, cpu::FetchPolicy::ICount,
                    cpu::FetchPolicy::OCount, cpu::FetchPolicy::Balance })
        .skip([](const driver::ExperimentSpec &s) {
            // OCOUNT needs the MOM Stream Length register.
            return s.simd == isa::SimdIsa::Mmx &&
                   s.policy == cpu::FetchPolicy::OCount;
        });
    return grid;
}

/**
 * Print the policy table rows; @p rr receives the round-robin headline
 * per [isa index][thread index] for the callers' footers.
 */
inline void
printPolicyTable(const driver::ResultSink &sink, mem::MemModel memModel,
                 double rr[2][4])
{
    const std::string hr = driver::ResultSink::rule(62);
    std::printf("%-6s %-8s | %8s %8s %8s %8s | best vs RR\n", "isa",
                "threads", "RR", "IC", "OC", "BL");
    std::printf("%s\n", hr.c_str());
    int isaIdx = 0;
    for (isa::SimdIsa simd : { isa::SimdIsa::Mmx, isa::SimdIsa::Mom }) {
        int thrIdx = 0;
        for (int threads : { 1, 2, 4, 8 }) {
            double v[4];
            int i = 0;
            for (cpu::FetchPolicy pol : { cpu::FetchPolicy::RoundRobin,
                                          cpu::FetchPolicy::ICount,
                                          cpu::FetchPolicy::OCount,
                                          cpu::FetchPolicy::Balance }) {
                // Skipped points (MMX+OCOUNT) read back as 0.0.
                v[i++] = sink.headlineAt(simd, threads, memModel, pol);
            }
            rr[isaIdx][thrIdx++] = v[0];
            double best = std::max({ v[1], v[2], v[3] });
            std::printf("%-6s %-8d | %8.2f %8.2f %8.2f %8.2f | ",
                        toString(simd), threads, v[0], v[1], v[2], v[3]);
            if (v[0] > 0.0 && best > 0.0)
                std::printf("%+.1f%%\n", 100 * (best / v[0] - 1.0));
            else
                std::printf("n/a\n");  // point(s) absent (shard run)
        }
        ++isaIdx;
    }
    std::printf("%s\n", hr.c_str());
}

} // namespace momsim::bench

#endif // MOMSIM_BENCH_POLICY_TABLE_HH
