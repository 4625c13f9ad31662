/**
 * @file
 * Reproduces Table 2: the selected workload mix's description — which
 * benchmark fills each MPEG-4 profile, its data set, and its measured
 * dynamic characteristics (our scaled equivalents of the paper's
 * columns). Defaults to the paper mix; --workload prints any registry
 * mix the same way. Registered as `momsim table2` (no sweep stage).
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "svc/bench_registry.hh"

namespace momsim::svc
{

namespace
{

using isa::SimdIsa;
using workloads::MediaWorkload;
using workloads::ProgramKind;

/** MPEG-4 profile each benchmark role stands in for. */
const char *
profileOf(ProgramKind kind)
{
    switch (kind) {
      case ProgramKind::Mpeg2Enc: return "MPEG-4 video (encode)";
      case ProgramKind::Mpeg2Dec: return "MPEG-4 video (decode)";
      case ProgramKind::GsmEnc: return "MPEG-4 audio speech (encode)";
      case ProgramKind::GsmDec: return "MPEG-4 audio speech (decode)";
      case ProgramKind::JpegEnc: return "MPEG-4 still image 2D (enc)";
      case ProgramKind::JpegDec: return "MPEG-4 still image 2D (dec)";
      case ProgramKind::Mesa: return "MPEG-4 still image 3D";
    }
    return "?";
}

const char *
datasetOf(ProgramKind kind)
{
    switch (kind) {
      case ProgramKind::Mpeg2Enc:
        return "QCIF 176x144, 3 frames (I P P), +/-4 full search";
      case ProgramKind::Mpeg2Dec: return "bitstream from mpeg2enc";
      case ProgramKind::GsmEnc:
      case ProgramKind::GsmDec:
        return "1.1 s synthetic speech, 160-sample frames";
      case ProgramKind::JpegEnc: return "160x128 synthetic RGB image";
      case ProgramKind::JpegDec: return "JFIF-style stream from jpegenc";
      case ProgramKind::Mesa:
        return "torus, 280 triangles, 160x120, 3 frames";
    }
    return "?";
}

const char *
ordinalSuffix(int n)
{
    if (n == 2)
        return "nd";
    if (n == 3)
        return "rd";
    return "th";
}

} // namespace

BenchDef
makeTable2Def()
{
    BenchDef def;
    def.name = "table2";
    def.oldBinary = "bench_table2_workload";
    def.summary = "Table 2: multiprogrammed workload description";
    def.runNoSweep = [](driver::BenchHarness &bench) {
        // One table per --workload selection (a single one by default).
        bench.perWorkload([&](const MediaWorkload &wl,
                              const std::string &) {
            const int n = wl.numPrograms();

            std::printf("Table 2: multiprogrammed workload description "
                        "(mix: %s)\n", wl.specName().c_str());
            std::printf("%-10s | %-29s | %-44s | %9s | %7s | %5s\n",
                        "instance", "profile", "data set", "Kinst MMX",
                        "branch%", "mem%");
            std::printf("------------------------------------------------"
                        "------------------------------------------------"
                        "----------------------\n");
            int copies[workloads::kNumProgramKinds] = {};
            for (int i = 0; i < n; ++i) {
                // Memoized when the workload was built: a plain read.
                const trace::MixSummary &mix =
                    wl.program(SimdIsa::Mmx, i).mix();
                ProgramKind kind = wl.kind(i);
                int ordinal = ++copies[static_cast<int>(kind)];
                std::string profile = profileOf(kind);
                if (ordinal > 1) {
                    // The paper annotates repeats:
                    // "MPEG-4 video (decode, 2nd)".
                    std::string marker =
                        strfmt(", %d%s", ordinal, ordinalSuffix(ordinal));
                    if (!profile.empty() && profile.back() == ')')
                        profile.insert(profile.size() - 1, marker);
                    else
                        profile += " (" + marker.substr(2) + ")";
                }
                std::printf("%-10s | %-29s | %-44s | %9.0f | %6.1f%% | "
                            "%4.1f%%\n",
                            wl.name(i).c_str(), profile.c_str(),
                            datasetOf(kind),
                            static_cast<double>(mix.eqInsts) / 1000.0,
                            100.0 * static_cast<double>(mix.branches) /
                                static_cast<double>(mix.eqInsts),
                            100.0 * mix.memPct());
            }
            std::printf("\n(The paper used Mediabench binaries with "
                        "their reference inputs; these are the scaled\n"
                        " synthetic equivalents — see DESIGN.md "
                        "substitutions.)\n");
        });
    };
    return def;
}

} // namespace momsim::svc
