/**
 * @file
 * Declarative experiment sweeps over the simulator's configuration
 * space, executed on the PointScheduler.
 *
 * The paper's figures and tables are all cartesian sweeps over the same
 * axes — workload mix, µ-SIMD extension, hardware thread count, memory
 * hierarchy and fetch policy — sometimes crossed with ad-hoc parameter
 * variants (Table 1's window sizes, the memory-system ablation).
 * SweepGrid captures that shape declaratively; ExperimentRunner
 * executes every point of a planned expansion concurrently and
 * delivers the results in sweep order, so a `--jobs 1` and a
 * `--jobs N` run of the same grid are indistinguishable byte for
 * byte.
 *
 * Workloads are a first-class axis: each spec names a registry
 * workload ("paper" by default) and the runner resolves it through a
 * shared WorkloadRepo, so one process can sweep several mixes while
 * each mix is synthesized exactly once.
 *
 * Determinism contract: each expanded spec carries a seed derived only
 * from the grid's base seed and the spec's identity — never from the
 * expansion index of a *filtered* list, wall-clock time, or the worker
 * that happens to run it.
 */

#ifndef MOMSIM_DRIVER_EXPERIMENT_HH
#define MOMSIM_DRIVER_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "driver/result_sink.hh"
#include "mem/hierarchy.hh"
#include "workloads/workload_repo.hh"

namespace momsim::driver
{

class PointScheduler;
class ResultStore;
struct PlannedPoint;
struct RunPlan;

/** One fully-specified simulation point. */
struct ExperimentSpec
{
    std::string id;             ///< unique key; defaulted by SweepGrid
    std::string workload = "paper";     ///< registry workload name
    isa::SimdIsa simd = isa::SimdIsa::Mmx;
    int threads = 1;
    mem::MemModel memModel = mem::MemModel::Conventional;
    cpu::FetchPolicy policy = cpu::FetchPolicy::RoundRobin;
    std::string variant;        ///< grid-variant label ("" if none)
    /**
     * Identity-derived per-task seed, recorded in the ResultRow. The
     * present simulator consumes no randomness at run time (workload
     * synthesis is seeded separately, once per process), so this is
     * provenance for the serialized results and the hook future
     * stochastic components draw from — not a current Simulation input.
     */
    uint64_t seed = 0;

    /** Optional parameter overrides applied after CoreConfig::preset. */
    std::function<void(cpu::CoreConfig &)> tweakCore;
    /** Optional memory-system overrides (ablation studies). */
    std::function<void(mem::MemConfig &)> tweakMem;

    int targetCompletions = -1;
    uint64_t maxCycles = 400'000'000ull;

    /** "workload/isa/threads/mem/policy[/variant]" — stable key. */
    std::string canonicalId() const;
};

/** A labelled mutation crossed into the grid (ablation axes). */
struct SweepVariant
{
    std::string label;
    std::function<void(ExperimentSpec &)> apply;
};

/**
 * Cartesian product builder. Unset axes default to a single element
 * (the paper workload, MMX, 1 thread, conventional memory, round-robin
 * fetch, no variant).
 */
class SweepGrid
{
  public:
    /**
     * The workload axis: registry names ("paper", "mpeg2x8", ...),
     * swept outermost. Benches normally leave this unset and let
     * BenchHarness fold in the user's --workload selection; setting it
     * explicitly (the mix-sensitivity bench) pins the axis.
     */
    SweepGrid &workloadSpecs(std::vector<std::string> v);
    SweepGrid &isas(std::vector<isa::SimdIsa> v);
    SweepGrid &threadCounts(std::vector<int> v);
    SweepGrid &memModels(std::vector<mem::MemModel> v);
    SweepGrid &policies(std::vector<cpu::FetchPolicy> v);
    SweepGrid &variants(std::vector<SweepVariant> v);

    /** True once workloadSpecs() was called. */
    bool hasExplicitWorkloads() const { return _explicitWorkloads; }
    const std::vector<std::string> &workloadList() const
    {
        return _workloads;
    }

    /** Drop points matching @p pred (e.g. OCOUNT on an MMX machine). */
    SweepGrid &skip(std::function<bool(const ExperimentSpec &)> pred);

    /** Run length bounds of every run in the grid. */
    SweepGrid &limits(int targetCompletions, uint64_t maxCycles);
    int targetCompletionsValue() const { return _targetCompletions; }
    uint64_t maxCyclesValue() const { return _maxCycles; }

    /** Full product size, before the skip predicate. */
    size_t size() const;

    /**
     * Expand to the spec list in axis-nesting order (workload
     * outermost, then isa, variant innermost), with ids and per-task
     * seeds filled in.
     */
    std::vector<ExperimentSpec> expand(uint64_t baseSeed = 0) const;

  private:
    std::vector<std::string> _workloads { "paper" };
    bool _explicitWorkloads = false;
    std::vector<isa::SimdIsa> _isas { isa::SimdIsa::Mmx };
    std::vector<int> _threads { 1 };
    std::vector<mem::MemModel> _mems { mem::MemModel::Conventional };
    std::vector<cpu::FetchPolicy> _policies { cpu::FetchPolicy::RoundRobin };
    std::vector<SweepVariant> _variants;
    std::function<bool(const ExperimentSpec &)> _skip;
    int _targetCompletions = -1;
    uint64_t _maxCycles = 400'000'000ull;
};

/**
 * The one sweep engine: executes a RunPlan's cache misses on a shared
 * PointScheduler, resolving each spec's workload through a
 * WorkloadRepo, and splices cached and fresh rows back in sweep order.
 * The CLI harness, SimService and the fabric worker all run sweeps
 * through it, so every entry point shares one tail policy: misses are
 * queued heaviest-first by PlannedPoint::cost (longest processing time
 * first), which keeps the last worker from starting an expensive point
 * just as the others go idle.
 */
class ExperimentRunner
{
  public:
    ExperimentRunner(workloads::WorkloadRepo &repo, PointScheduler &sched)
        : _repo(repo), _sched(sched)
    {}

    /**
     * Per-completion callback of run(): fired once per non-disk-cached
     * row, serialized (under the same lock as store puts) but in
     * completion order, not sweep order. A streamed SimRequest writes
     * its rows out from here.
     */
    using RowFn =
        std::function<void(const PlannedPoint &, const ResultRow &)>;

    /**
     * Execute a RunPlan (see result_store.hh): simulate only this
     * shard's cache misses, splice cached rows back in sweep order,
     * and persist every row the scheduler delivers to @p store when
     * given — the moment it completes, so an interrupted multi-hour
     * run resumes from its last completed point. The sink holds
     * exactly this shard's points.
     *
     * Rows another request simulated (singleflight joins) and memory-
     * cache replays flow through the same path, so @p store still ends
     * up holding every row this plan claims to have produced and
     * @p onRow still fires once per non-disk-cached point. A row
     * @p store already holds (a shared store the simulating request
     * filled) is not appended again.
     *
     * The plan must have been built against this runner's repo
     * (planSweep's fingerprinting already built every workload the
     * specs name).
     */
    ResultSink run(const RunPlan &plan, ResultStore *store = nullptr,
                   const RowFn &onRow = nullptr);

    /**
     * Execute one spec on the calling thread: arm the Simulation, then
     * advance it in kBatchQuantumCycles slices until it completes.
     * Slicing is byte-identical to one uncapped run; the scheduler's
     * workers run exactly this loop.
     */
    ResultRow runOne(const ExperimentSpec &spec) const;

    /** The advance() slice of runOne, in cycles. */
    static constexpr uint64_t kBatchQuantumCycles = 32768;

    PointScheduler &scheduler() { return _sched; }

  private:
    workloads::WorkloadRepo &_repo;
    PointScheduler &_sched;
};

/**
 * Fold a caller's run selection into @p grid, the one way every entry
 * point does it: grids that left the workload axis unset sweep
 * @p workloads (or "paper" when that is empty; grids that pinned their
 * own axis win), and a nonzero @p maxCycles overrides the grid's cycle
 * cap — which lands in every spec's maxCycles and therefore in the
 * result-store keys, so rows cached under one limit never replay under
 * another. Shared by BenchHarness::run (the CLI) and
 * svc::SimService::submit (the service) so the two paths cannot drift
 * on key-affecting semantics.
 */
void applyRunSelection(SweepGrid &grid,
                       const std::vector<std::string> &workloads,
                       uint64_t maxCycles);

/** SplitMix64 step — the seed-derivation primitive used by SweepGrid. */
uint64_t mixSeed(uint64_t base, const std::string &key);

} // namespace momsim::driver

#endif // MOMSIM_DRIVER_EXPERIMENT_HH
