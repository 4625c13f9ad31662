/**
 * @file
 * An immutable multiprogrammed workload built from a WorkloadSpec
 * recipe: one program instance per rotation slot, in both ISAs, with
 * the MMX equivalent-instruction counts that feed the EIPC metric for
 * MOM runs.
 *
 * The default recipe is the paper's Table-2 mix (eight program
 * instances approximating the MPEG-4 profiles, in the exact rotation
 * order of Section 5.1 — "the most significant program is included
 * twice"), but any registry spec builds the same way: duplicate slots
 * share one synthesis and are rebased into their own address space,
 * and decoder slots whose matching encoder is absent from the mix get
 * their bitstream from a throwaway encoder build.
 *
 * The build is a task graph (schedule()): one task per first-slot
 * program per ISA, decoders after their codec's encoder, duplicates
 * after the instance they rebase, and the fingerprint folded in
 * program order as programs finish. Every task makes the same call
 * with the same address base as a serial build, so the traces and the
 * fingerprint do not depend on how many threads run the graph.
 * Finished traces are sealed in place: the workload's InstArena takes
 * over each program's build buffer, so no record is copied.
 */

#ifndef MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH
#define MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "trace/inst_arena.hh"
#include "trace/program.hh"
#include "workloads/build_pool.hh"
#include "workloads/workload_spec.hh"

namespace momsim::workloads
{

class MediaWorkload
{
  public:
    /** Rotation size of the paper's Table-2 mix (the default spec). */
    static constexpr int kNumPrograms = 8;

    /** Build every program of both ISAs for @p spec's recipe, serially
     *  on the calling thread. */
    static std::unique_ptr<MediaWorkload> build(const WorkloadSpec &spec);

    /** The paper mix at the given scale (the pre-spec default). */
    static std::unique_ptr<MediaWorkload> build(WorkloadScale scale);

    /**
     * Add the synthesis tasks of @p spec to @p graph and return the
     * workload they fill in. It is complete (sealed, fingerprinted)
     * once the graph has run, must not be read before, and must
     * outlive the run. Several workloads can share one graph.
     */
    static std::unique_ptr<MediaWorkload> schedule(const WorkloadSpec &spec,
                                                   BuildGraph &graph);

    /** The spec name this workload was built from ("paper", ...). */
    const std::string &specName() const { return _specName; }

    int numPrograms() const { return static_cast<int>(_names.size()); }

    /** Program instance name in rotation slot @p i ("mpeg2dec2"). */
    const std::string &name(int i) const { return _names[static_cast<size_t>(i)]; }

    /** Benchmark role filling rotation slot @p i. */
    ProgramKind kind(int i) const { return _kinds[static_cast<size_t>(i)]; }

    const trace::Program &program(isa::SimdIsa simd, int i) const
    {
        const auto &arr = (simd == isa::SimdIsa::Mom) ? _mom : _mmx;
        return arr[static_cast<size_t>(i)];
    }

    /** Equivalent-instruction count of slot @p i under @p simd. */
    uint64_t eqInsts(isa::SimdIsa simd, int i) const
    {
        const auto &eq = (simd == isa::SimdIsa::Mom) ? _momEq : _mmxEq;
        return eq[static_cast<size_t>(i)];
    }

    /** The spec's rotation for a given ISA, with EIPC weights. */
    std::vector<core::WorkloadProgram> rotation(isa::SimdIsa simd) const;

    /**
     * Content hash over every program of both ISAs (names plus the full
     * dynamic instruction streams), computed once at build time. Any
     * change to workload synthesis — recipe, scale, codec parameters,
     * emitter fixes — changes the fingerprint, which is what keys
     * persisted ResultRows so stale cached results can never be
     * replayed. Deliberately content-only: two spec names with an
     * identical recipe hash equal, so their cached rows are shared.
     */
    uint64_t fingerprint() const { return _fingerprint; }

    /** The storage every sealed program's span points into. */
    const trace::InstArena &arena() const { return _arena; }

  private:
    /** Owns the build buffer of every sealed trace of both ISAs. */
    trace::InstArena _arena;
    std::vector<trace::Program> _mmx;
    std::vector<trace::Program> _mom;
    std::vector<std::string> _names;
    std::vector<ProgramKind> _kinds;
    /** Cached equivalent-instruction counts (MMX ones = EIPC weights). */
    std::vector<uint64_t> _mmxEq;
    std::vector<uint64_t> _momEq;
    std::string _specName;
    uint64_t _fingerprint = 0;
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_MEDIA_WORKLOAD_HH
