/**
 * @file
 * Top-level simulation driver implementing the paper's methodology
 * (Section 5.1): a fixed rotation of benchmark programs is spread over
 * the hardware contexts; whenever a program completes, the next one from
 * the list starts in that context (wrapping around), so the machine never
 * runs below its context count; the run ends when as many program
 * completions as list entries have been observed (8 for the paper's
 * Table-2 mix; workload specs of any rotation size run the same way).
 *
 * Metrics: IPC counts committed equivalent instructions per cycle; EIPC
 * converts MOM work into MMX-equivalent instructions ("the IPC a SMT+MMX
 * processor should reach in order to match the performance of the
 * SMT+MOM processor") so the two ISAs are comparable.
 */

#ifndef MOMSIM_CORE_SIMULATION_HH
#define MOMSIM_CORE_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/smt_core.hh"
#include "mem/hierarchy.hh"
#include "trace/program.hh"

namespace momsim::core
{

/** One rotation slot: a program plus its MMX-equivalent size. */
struct WorkloadProgram
{
    const trace::Program *prog = nullptr;
    /**
     * Equivalent-instruction count of the MMX build of the same
     * benchmark; used for EIPC. For MMX programs this equals the
     * program's own eq count.
     */
    uint64_t mmxEq = 0;
};

/** Summary of one simulation run (one bench data point). */
struct RunResult
{
    uint64_t cycles = 0;
    uint64_t committedEq = 0;
    double ipc = 0.0;           ///< native equivalent instructions / cycle
    double eipc = 0.0;          ///< MMX-equivalent instructions / cycle
    double l1HitRate = 0.0;
    double icacheHitRate = 0.0;
    double l1AvgLatency = 0.0;
    uint64_t mispredicts = 0;
    uint64_t condBranches = 0;
    int completions = 0;
    /**
     * The run stopped at maxCycles before reaching its completion
     * target. Carried as data (and serialized with every ResultRow)
     * instead of a stderr warn: warns from scheduler workers interleave
     * nondeterministically and are invisible in CSV/JSON output.
     */
    bool hitCycleLimit = false;
    /**
     * Simulator self-measurement (host wall clock of the run loop and
     * simulated kilocycles per wall second). Nondeterministic by
     * nature; serialized at the tail of every ResultRow (schema v4) so
     * cached sweeps keep a per-point performance trajectory, but never
     * printed by the figure benches, whose stdout stays byte-stable.
     */
    double wallMs = 0.0;
    double simKcps = 0.0;
};

class Simulation
{
  public:
    Simulation(const cpu::CoreConfig &cfg, mem::MemModel memModel,
               std::vector<WorkloadProgram> rotation,
               const mem::MemConfig &memCfg = {});

    /**
     * Run until @p targetCompletions programs finish (default: one pass
     * over the rotation list) or @p maxCycles elapse. Equivalent to
     * begin() + advance() to completion + finish().
     */
    RunResult run(int targetCompletions = -1,
                  uint64_t maxCycles = 400'000'000ull);

    /**
     * Resumable form of run(), for callers stepping a run in slices
     * (ExperimentRunner::runOne): begin() arms the run, each
     * advance() simulates up to @p cycleBudget further cycles, and
     * finish() produces the RunResult once advance() reported
     * completion. The cycle budget only caps the core's idle
     * fast-forward at a nearer horizon, which is byte-identical to an
     * uncapped run by construction — a chunked run produces exactly
     * the same RunResult as one run() call, whatever the budgets.
     */
    void begin(int targetCompletions = -1,
               uint64_t maxCycles = 400'000'000ull);

    /** Simulate up to @p cycleBudget more cycles; true once done. */
    bool advance(uint64_t cycleBudget);

    /** True once the run hit its completion target or cycle limit. */
    bool done() const { return _phase == Phase::Done; }

    /** Summarize the completed run; legal only once done(). */
    RunResult finish();

    cpu::SmtCore &coreRef() { return *_core; }
    mem::MemorySystem &memRef() { return *_mem; }

  private:
    enum class Phase : uint8_t { Fresh, Running, Done };

    void attachNext(int tid);

    cpu::CoreConfig _cfg;
    std::vector<WorkloadProgram> _rotation;
    std::unique_ptr<mem::MemorySystem> _mem;
    std::unique_ptr<cpu::SmtCore> _core;
    size_t _nextProgram = 0;
    std::vector<size_t> _running;   ///< rotation index per context
    int _completions = 0;
    uint64_t _mmxWorkDone = 0;
    Phase _phase = Phase::Fresh;
    int _target = 0;
    uint64_t _maxCycles = 0;
    uint64_t _cycleStart = 0;
    /**
     * A context can only drain by committing its last instruction, so
     * the per-cycle idle scan is pointless on commit-free cycles —
     * with one exception: a freshly attached zero-instruction program
     * is idle without ever committing, so a scan stays pending as long
     * as the previous scan attached anything (and initially, for the
     * programs attached at construction). Persists across advance()
     * slices so chunked runs scan exactly where run() would.
     */
    bool _idleScanPending = true;
    double _wallMs = 0.0;           ///< accumulated across advance()s
};

} // namespace momsim::core

#endif // MOMSIM_CORE_SIMULATION_HH
