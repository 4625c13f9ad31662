/**
 * @file
 * Reproduces Table 3: instruction breakdown (% integer / fp / SIMD
 * arithmetic / memory) and equivalent-instruction counts per benchmark
 * under the MMX and MOM instruction sets. Registered as
 * `momsim table3` (no sweep stage).
 *
 * Expected shape (paper): the mix is dominated by integer instructions
 * under both ISAs (~62% average under MMX); SIMD arithmetic is a
 * minority (~16%); MOM needs ~0.76x the MMX equivalent instructions
 * overall (1087 vs 1429 Minst), with the largest reduction in mpeg2enc;
 * mesa is identical under both ISAs.
 */

#include <cstdio>

#include "svc/bench_registry.hh"

namespace momsim::svc
{

BenchDef
makeTable3Def()
{
    using isa::SimdIsa;
    using workloads::MediaWorkload;

    BenchDef def;
    def.name = "table3";
    def.oldBinary = "bench_table3_breakdown";
    def.summary = "Table 3: instruction breakdown and eq-inst counts";
    def.runNoSweep = [](driver::BenchHarness &bench) {
        // One table per --workload selection (a single one by default).
        bench.perWorkload([&](const MediaWorkload &wl,
                              const std::string &) {
            const int n = wl.numPrograms();

            std::printf("Table 3: instruction breakdown (%%) and "
                        "equivalent instruction count (Kinst; mix: "
                        "%s)\n", wl.specName().c_str());
            std::printf("%-10s | %22s | %22s | ratio\n", "",
                        "MMX  int/fp/simd/mem", "MOM  int/fp/simd/mem");
            std::printf("%-10s | %22s | %22s | MOM/MMX\n", "benchmark",
                        "and Kinst", "and Kinst");
            std::printf("------------------------------------------------"
                        "-------------------------------\n");

            uint64_t totMmx = 0, totMom = 0;
            double mmxIntW = 0, mmxSimdW = 0;
            for (int i = 0; i < n; ++i) {
                // Memoized when the workload was built: plain reads.
                const trace::MixSummary &mmx =
                    wl.program(SimdIsa::Mmx, i).mix();
                const trace::MixSummary &mom =
                    wl.program(SimdIsa::Mom, i).mix();
                totMmx += mmx.eqInsts;
                totMom += mom.eqInsts;
                mmxIntW +=
                    mmx.intPct() * static_cast<double>(mmx.eqInsts);
                mmxSimdW +=
                    mmx.simdPct() * static_cast<double>(mmx.eqInsts);
                std::printf("%-10s | %4.1f/%4.1f/%4.1f/%4.1f %6.0fK "
                            "| %4.1f/%4.1f/%4.1f/%4.1f %6.0fK | %.2f\n",
                            wl.name(i).c_str(),
                            100 * mmx.intPct(), 100 * mmx.fpPct(),
                            100 * mmx.simdPct(), 100 * mmx.memPct(),
                            static_cast<double>(mmx.eqInsts) / 1000.0,
                            100 * mom.intPct(), 100 * mom.fpPct(),
                            100 * mom.simdPct(), 100 * mom.memPct(),
                            static_cast<double>(mom.eqInsts) / 1000.0,
                            static_cast<double>(mom.eqInsts) /
                                static_cast<double>(mmx.eqInsts));
            }
            std::printf("------------------------------------------------"
                        "-------------------------------\n");
            std::printf("%-10s | total %10.0fK        | total %10.0fK  "
                        "      | %.2f\n", "all",
                        static_cast<double>(totMmx) / 1000.0,
                        static_cast<double>(totMom) / 1000.0,
                        static_cast<double>(totMom) /
                            static_cast<double>(totMmx));
            std::printf("\nMMX weighted integer share: %.1f%% (paper: "
                        "~62%%); SIMD share: %.1f%% (paper: ~16%%)\n",
                        100 * mmxIntW / static_cast<double>(totMmx),
                        100 * mmxSimdW / static_cast<double>(totMmx));
            std::printf("Paper totals: 1429 vs 1087 Minst => MOM/MMX = "
                        "0.76\n");
        });
    };
    return def;
}

} // namespace momsim::svc
