#include "driver/experiment.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "core/simulation.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"

namespace momsim::driver
{

uint64_t
mixSeed(uint64_t base, const std::string &key)
{
    // FNV-1a over the key, folded into the base via SplitMix64.
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    uint64_t z = base ^ h;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
applyRunSelection(SweepGrid &grid,
                  const std::vector<std::string> &workloads,
                  uint64_t maxCycles)
{
    if (!grid.hasExplicitWorkloads()) {
        grid.workloadSpecs(workloads.empty()
                               ? std::vector<std::string> { "paper" }
                               : workloads);
    }
    if (maxCycles != 0)
        grid.limits(grid.targetCompletionsValue(), maxCycles);
}

std::string
ExperimentSpec::canonicalId() const
{
    std::string out = strfmt("%s/%s/%dthr/%s/%s", workload.c_str(),
                             isa::toString(simd), threads,
                             mem::toString(memModel),
                             cpu::toString(policy));
    if (!variant.empty())
        out += "/" + variant;
    return out;
}

SweepGrid &
SweepGrid::workloadSpecs(std::vector<std::string> v)
{
    MOMSIM_ASSERT(!v.empty(), "workload axis cannot be empty");
    for (size_t i = 0; i < v.size(); ++i)
        for (size_t j = i + 1; j < v.size(); ++j)
            MOMSIM_ASSERT(v[i] != v[j],
                          "duplicate workload in the axis: repeated "
                          "names expand identical ids and seeds");
    _workloads = std::move(v);
    _explicitWorkloads = true;
    return *this;
}

SweepGrid &
SweepGrid::isas(std::vector<isa::SimdIsa> v)
{
    _isas = std::move(v);
    return *this;
}

SweepGrid &
SweepGrid::threadCounts(std::vector<int> v)
{
    _threads = std::move(v);
    return *this;
}

SweepGrid &
SweepGrid::memModels(std::vector<mem::MemModel> v)
{
    _mems = std::move(v);
    return *this;
}

SweepGrid &
SweepGrid::policies(std::vector<cpu::FetchPolicy> v)
{
    _policies = std::move(v);
    return *this;
}

SweepGrid &
SweepGrid::variants(std::vector<SweepVariant> v)
{
    _variants = std::move(v);
    return *this;
}

SweepGrid &
SweepGrid::skip(std::function<bool(const ExperimentSpec &)> pred)
{
    _skip = std::move(pred);
    return *this;
}

SweepGrid &
SweepGrid::limits(int targetCompletions, uint64_t maxCycles)
{
    _targetCompletions = targetCompletions;
    _maxCycles = maxCycles;
    return *this;
}

size_t
SweepGrid::size() const
{
    size_t variants = _variants.empty() ? 1 : _variants.size();
    return _workloads.size() * _isas.size() * _threads.size() *
           _mems.size() * _policies.size() * variants;
}

std::vector<ExperimentSpec>
SweepGrid::expand(uint64_t baseSeed) const
{
    static const std::vector<SweepVariant> kNoVariant { { "", nullptr } };
    std::vector<ExperimentSpec> out;
    out.reserve(size());
    const std::vector<SweepVariant> &variants =
        _variants.empty() ? kNoVariant : _variants;
    for (const std::string &workload : _workloads) {
    for (isa::SimdIsa simd : _isas) {
        for (int threads : _threads) {
            for (mem::MemModel memModel : _mems) {
                for (cpu::FetchPolicy policy : _policies) {
                    for (const SweepVariant &variant : variants) {
                        ExperimentSpec spec;
                        spec.workload = workload;
                        spec.simd = simd;
                        spec.threads = threads;
                        spec.memModel = memModel;
                        spec.policy = policy;
                        spec.variant = variant.label;
                        spec.targetCompletions = _targetCompletions;
                        spec.maxCycles = _maxCycles;
                        if (variant.apply)
                            variant.apply(spec);
                        spec.id = spec.canonicalId();
                        // Seed from identity, not list position, so
                        // skip() cannot shift the seeds of survivors.
                        spec.seed = mixSeed(baseSeed, spec.id);
                        if (_skip && _skip(spec))
                            continue;
                        out.push_back(std::move(spec));
                    }
                }
            }
        }
    }
    }
    return out;
}

ResultRow
ExperimentRunner::runOne(const ExperimentSpec &spec) const
{
    using clock = std::chrono::steady_clock;
    // Setup wall time (workload lookup, machine construction) counts
    // toward the row; the simulation loop self-measures in advance().
    const auto start = clock::now();

    cpu::CoreConfig cfg =
        cpu::CoreConfig::preset(spec.threads, spec.simd, spec.policy);
    if (spec.tweakCore)
        spec.tweakCore(cfg);

    mem::MemConfig memCfg;
    if (spec.tweakMem)
        spec.tweakMem(memCfg);

    std::shared_ptr<const workloads::MediaWorkload> workload =
        _repo.get(spec.workload);
    auto sim = std::make_unique<core::Simulation>(
        cfg, spec.memModel, workload->rotation(spec.simd), memCfg);
    sim->begin(spec.targetCompletions, spec.maxCycles);
    const double setupMs =
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count();
    while (!sim->advance(kBatchQuantumCycles)) {
    }
    core::RunResult run = sim->finish();

    ResultRow row;
    row.id = spec.id.empty() ? spec.canonicalId() : spec.id;
    row.workload = spec.workload;
    row.simd = spec.simd;
    row.threads = spec.threads;
    row.memModel = spec.memModel;
    row.policy = spec.policy;
    row.variant = spec.variant;
    row.seed = spec.seed;
    row.run = run;
    row.headline = ResultSink::headlineOf(run, spec.simd);
    row.wallMs = setupMs + run.wallMs;
    return row;
}

void
ExperimentRunner::start(RunPlan plan, ResultStore *store, RowFn onRow,
                        DoneFn done, PointScheduler::Lane lane)
{
    // Everything the deliveries and the completion touch lives here,
    // owned by the scheduler's request until the completion ran.
    struct Run
    {
        RunPlan plan;
        std::vector<size_t> todo;       ///< slot -> plan index
        std::vector<ResultRow> fresh;   ///< plan index -> delivered row
        momsim::Mutex mutex;
    };
    auto run = std::make_shared<Run>();
    run->plan = std::move(plan);
    const RunPlan &p = run->plan;

    // This shard's misses, heaviest first; the stable sort keeps equal
    // costs in sweep order, so the add() order is deterministic.
    for (size_t i = 0; i < p.points.size(); ++i) {
        if (p.points[i].shard == p.shardIndex && !p.points[i].cached)
            run->todo.push_back(i);
    }
    std::stable_sort(run->todo.begin(), run->todo.end(),
                     [&p](size_t a, size_t b) {
                         return p.points[a].cost > p.points[b].cost;
                     });
    run->fresh.resize(p.points.size());

    // Deliveries run on scheduler workers (several rows of this
    // request may complete concurrently) — one mutex preserves the
    // RowFn/store contract: puts and onRow fire serialized, per row,
    // the moment it completes. Rows the request did not simulate
    // itself (joins, memory-cache replays) pass through here too, so
    // a request-private --cache-dir still ends up complete; a store
    // shared with the request that simulated the row already holds
    // it, and putIfAbsent appends it only once.
    PointScheduler::Request request(
        _sched,
        [runner = *this](const std::vector<const ExperimentSpec *> &specs) {
            std::vector<ResultRow> rows;
            for (const ExperimentSpec *spec : specs)
                rows.push_back(runner.runOne(*spec));
            return rows;
        },
        [run, store, onRow = std::move(onRow)](size_t slot,
                                               const ResultRow &row) {
            const size_t i = run->todo[slot];
            MutexLock lock(run->mutex);
            if (store)
                store->putIfAbsent(run->plan.points[i].key, row);
            if (onRow)
                onRow(run->plan.points[i], row);
            run->fresh[i] = row;
        },
        [run, done = std::move(done)](const std::exception_ptr &error) {
            if (error) {
                done(ResultSink {}, error);
                return;
            }
            // Splice in sweep order: cached rows verbatim, fresh rows
            // as delivered.
            ResultSink sink;
            for (size_t i = 0; i < run->plan.points.size(); ++i) {
                const PlannedPoint &pt = run->plan.points[i];
                if (pt.shard != run->plan.shardIndex)
                    continue;
                if (pt.cached)
                    sink.append(pt.row);
                else
                    sink.append(std::move(run->fresh[i]));
            }
            done(std::move(sink), nullptr);
        },
        std::move(lane));
    for (size_t i : run->todo)
        request.add(p.points[i].spec, p.points[i].key);
    request.close();
}

ResultSink
ExperimentRunner::run(const RunPlan &plan, ResultStore *store,
                      const RowFn &onRow)
{
    // The completion owns the promise, so it outlives the set_value()
    // this thread wakes on.
    auto result = std::make_shared<std::promise<ResultSink>>();
    std::future<ResultSink> sink = result->get_future();
    start(plan, store, onRow,
          [result](ResultSink done, const std::exception_ptr &error) {
              if (error)
                  result->set_exception(error);
              else
                  result->set_value(std::move(done));
          });
    return sink.get();
}

} // namespace momsim::driver
