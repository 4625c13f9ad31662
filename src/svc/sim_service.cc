#include "svc/sim_service.hh"

#include <chrono>
#include <future>
#include <unordered_set>

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "svc/axis_parse.hh"
#include "svc/bench_registry.hh"
#include "workloads/workload_spec.hh"

namespace momsim::svc
{

namespace
{

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

SimService::SimService(SimServiceConfig cfg)
    : _start(std::chrono::steady_clock::now()),
      _sched(driver::PointScheduler::Config { cfg.jobs,
                                              cfg.memCacheRows }),
      _buildPool(std::make_shared<workloads::BuildPool>(cfg.jobs)),
      _paperRepo(workloads::WorkloadScale::Paper, _buildPool),
      _tinyRepo(workloads::WorkloadScale::Tiny, _buildPool)
{}

bool
SimService::resolveGrid(const SimRequest &req, driver::SweepGrid &grid,
                        std::string &benchName,
                        SimResponse &error) const
{
    const bool hasAxes = !req.isas.empty() || !req.threads.empty() ||
                         !req.memModels.empty() || !req.policies.empty();

    if (!req.bench.empty()) {
        if (hasAxes) {
            error = SimResponse::failure(
                req.id, errc::kBadRequest,
                "\"bench\" and explicit axes are mutually exclusive");
            return false;
        }
        const BenchDef *def = findBench(req.bench);
        if (!def) {
            error = SimResponse::failure(
                req.id, errc::kUnknownBench,
                strfmt("unknown bench \"%s\" (see `momsim list`)",
                       req.bench.c_str()));
            return false;
        }
        if (!def->hasSweep()) {
            error = SimResponse::failure(
                req.id, errc::kNoSweep,
                strfmt("bench \"%s\" has no sweep stage; use the "
                       "`momsim %s` CLI for its analysis tables",
                       req.bench.c_str(), req.bench.c_str()));
            return false;
        }
        // The grid factory sees the request's workload selection the
        // same way it sees a CLI --workload (the mix-sensitivity bench
        // pins its own axis only when the selection is empty).
        driver::BenchOptions opts;
        opts.quick = req.quick;
        opts.workloads = req.workloads;
        grid = def->grid(opts);
        benchName = def->name;
        return true;
    }

    // Explicit axes: unset ones default to a single element, exactly
    // like SweepGrid's own defaults. Duplicate values (checked on the
    // *parsed* value, so "mmx" and "MMX" collide) reject — they would
    // expand duplicate sweep points with identical ids, seeds and
    // cache keys, the same bug class the workload axis rejects above.
    auto duplicateIn = [&](const auto &values, const std::string &name,
                           const char *axis) {
        for (size_t i = 0; i + 1 < values.size(); ++i) {
            if (values[i] == values.back()) {
                error = SimResponse::failure(
                    req.id, errc::kBadAxis,
                    strfmt("duplicate %s \"%s\"", axis, name.c_str()));
                return true;
            }
        }
        return false;
    };

    std::vector<isa::SimdIsa> isas;
    for (const std::string &s : req.isas) {
        isa::SimdIsa v;
        if (!parseIsaToken(s, v)) {
            error = SimResponse::failure(
                req.id, errc::kBadAxis,
                strfmt("unknown isa \"%s\"", s.c_str()));
            return false;
        }
        isas.push_back(v);
        if (duplicateIn(isas, s, "isa"))
            return false;
    }
    std::vector<mem::MemModel> mems;
    for (const std::string &s : req.memModels) {
        mem::MemModel v;
        if (!parseMemModelToken(s, v)) {
            error = SimResponse::failure(
                req.id, errc::kBadAxis,
                strfmt("unknown memModel \"%s\"", s.c_str()));
            return false;
        }
        mems.push_back(v);
        if (duplicateIn(mems, s, "memModel"))
            return false;
    }
    std::vector<cpu::FetchPolicy> policies;
    for (const std::string &s : req.policies) {
        cpu::FetchPolicy v;
        if (!parsePolicyToken(s, v)) {
            error = SimResponse::failure(
                req.id, errc::kBadAxis,
                strfmt("unknown policy \"%s\"", s.c_str()));
            return false;
        }
        policies.push_back(v);
        if (duplicateIn(policies, s, "policy"))
            return false;
    }
    for (size_t i = 0; i < req.threads.size(); ++i) {
        int t = req.threads[i];
        if (t < 1 || t > 8) {
            error = SimResponse::failure(
                req.id, errc::kBadAxis,
                strfmt("thread count %d out of range 1..8", t));
            return false;
        }
        for (size_t j = 0; j < i; ++j) {
            if (req.threads[j] == t) {
                error = SimResponse::failure(
                    req.id, errc::kBadAxis,
                    strfmt("duplicate thread count %d", t));
                return false;
            }
        }
    }

    if (!isas.empty())
        grid.isas(std::move(isas));
    if (!req.threads.empty())
        grid.threadCounts(req.threads);
    if (!mems.empty())
        grid.memModels(std::move(mems));
    if (!policies.empty())
        grid.policies(std::move(policies));
    benchName.clear();
    return true;
}

uint64_t
SimService::uptimeMs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - _start)
            .count());
}

void
SimService::start(const SimRequest &req,
                  const driver::PointScheduler::Lane &lane, RowFn onRow,
                  DoneFn onDone)
{
    _active.fetch_add(1, std::memory_order_relaxed);
    const double t0 = nowMs();
    // Every answer leaves through here, so inFlight() counts exactly
    // the requests started and not yet answered.
    auto answer = [this](DoneFn &finish, SimResponse resp) {
        _active.fetch_sub(1, std::memory_order_relaxed);
        finish(std::move(resp));
    };
    auto fail = [&](const std::string &code, const std::string &message) {
        answer(onDone, SimResponse::failure(req.id, code, message));
    };

    // ---- request validation, all via structured errors ----
    if (req.shardCount < 1 || req.shardIndex < 1 ||
        req.shardIndex > req.shardCount) {
        return fail(errc::kBadShard,
                    strfmt("bad shard %d/%d (want 1 <= I <= N)",
                           req.shardIndex, req.shardCount));
    }
    if (!req.points.empty() && req.shardCount != 1) {
        return fail(errc::kBadShard,
                    "a request naming \"points\" must be unsharded — the "
                    "point list is the shard");
    }
    for (const std::string &name : req.workloads) {
        if (!workloads::WorkloadSpec::isKnown(name)) {
            return fail(errc::kUnknownWorkload,
                        strfmt("unknown workload \"%s\" (see "
                               "--list-workloads)", name.c_str()));
        }
    }
    for (size_t i = 0; i < req.workloads.size(); ++i) {
        for (size_t j = i + 1; j < req.workloads.size(); ++j) {
            if (req.workloads[i] == req.workloads[j]) {
                return fail(errc::kBadRequest,
                            strfmt("duplicate workload \"%s\"",
                                   req.workloads[i].c_str()));
            }
        }
    }

    driver::SweepGrid grid;
    std::string benchName;
    SimResponse error;
    if (!resolveGrid(req, grid, benchName, error))
        return answer(onDone, std::move(error));

    // The same fold the CLI harness applies — shared so the two entry
    // points cannot drift on key-affecting semantics.
    driver::applyRunSelection(grid, req.workloads, req.maxCycles);

    // ---- execution: no run lock — requests interleave point-by-point
    // on the shared scheduler ----

    // Store selection: a request naming its own cacheDir gets that
    // store (the service-lifetime one if the dirs coincide); a request
    // naming none inherits the service's shared store when openCache()
    // bound one, which is how a warm daemon turns repeat traffic into
    // cache replays instead of simulations. Stores are internally
    // thread-safe, and even two request-private stores on one dir
    // serialize their file appends on a per-path lock. The completion
    // owns the store, so it lives until the last row is appended.
    std::shared_ptr<driver::ResultStore> store;
    {
        MutexLock lock(_cacheMutex);
        if (req.cacheDir.empty() || req.cacheDir == _sharedDir)
            store = _sharedStore;
    }
    if (!store && !req.cacheDir.empty()) {
        store = std::make_shared<driver::ResultStore>();
        if (!store->openDir(req.cacheDir)) {
            return fail(errc::kCacheDir,
                        strfmt("cannot open cacheDir \"%s\"",
                               req.cacheDir.c_str()));
        }
    }

    // Workloads build before planning, as one task graph on the
    // service's synthesis budget. The repo builds each name once
    // process-wide: a concurrent request needing a mix already in
    // flight waits for that build instead of starting its own.
    workloads::WorkloadRepo &repo = this->repo(req.quick);
    repo.prebuild(grid.workloadList());

    driver::RunPlan plan =
        planSweep(grid.expand(req.seed), repo, store.get(),
                  req.shardIndex - 1, req.shardCount);

    if (!req.points.empty()) {
        // Keep only the named points: everything else becomes foreign
        // (shard -1, which is never plan.shardIndex), so the runner
        // simulates — and the counts describe — exactly the list.
        std::unordered_set<std::string> want(req.points.begin(),
                                             req.points.end());
        for (driver::PlannedPoint &p : plan.points) {
            auto it = want.find(p.spec.canonicalId());
            if (it == want.end())
                p.shard = -1;
            else
                want.erase(it);
        }
        if (!want.empty()) {
            // Report the first unknown id in the *request's* order:
            // want is an unordered_set, and its begin() under multiple
            // unknowns would pick a hash-order-dependent one — a
            // nondeterministic response byte.
            const std::string *unknown = nullptr;
            for (const std::string &id : req.points) {
                if (want.count(id) != 0) {
                    unknown = &id;
                    break;
                }
            }
            return fail(errc::kBadRequest,
                        strfmt("unknown point \"%s\" (not in this sweep)",
                               unknown->c_str()));
        }
    }

    // Disk-cache hits replay right away, in sweep order, before any
    // simulation starts; the runner delivers the rest.
    if (onRow) {
        for (const driver::PlannedPoint &p : plan.points) {
            if (p.shard == plan.shardIndex && p.cached)
                onRow(p, p.row);
        }
    }

    SimResponse resp;
    resp.id = req.id;
    resp.ok = true;
    resp.bench = benchName;
    resp.totalPoints = plan.points.size();
    resp.cachedPoints = plan.cachedMineCount();
    resp.simulatedPoints = plan.simulateCount();
    _sched.noteDiskCacheHits(resp.cachedPoints);

    // A deal's points stay pending until their rows are delivered.
    const bool deal = !req.points.empty();
    if (deal)
        _pendingPoints.fetch_add(static_cast<long>(resp.simulatedPoints),
                                 std::memory_order_relaxed);
    auto deliver = [this, deal, onRow = std::move(onRow)](
                       const driver::PlannedPoint &p,
                       const driver::ResultRow &row) {
        if (deal)
            _pendingPoints.fetch_sub(1, std::memory_order_relaxed);
        if (onRow)
            onRow(p, row);
    };
    // noexcept: an exec failure is a simulator bug, not a request-
    // shaped problem, so rethrowing it ends the process on whichever
    // thread finished the request.
    auto done = [this, answer, store, t0, resp = std::move(resp),
                 onDone = std::move(onDone)](
                    const driver::ResultSink &sink,
                    const std::exception_ptr &failure) mutable noexcept {
        if (failure)
            std::rethrow_exception(failure);
        resp.rows = sink.rows();
        resp.wallMs = nowMs() - t0;
        answer(onDone, std::move(resp));
    };
    driver::ExperimentRunner(repo, _sched)
        .start(std::move(plan), store.get(), std::move(deliver),
               std::move(done), lane);
}

SimResponse
SimService::submit(const SimRequest &req, const RowFn &onRow)
{
    // The completion owns the promise, so it outlives the set_value()
    // this thread wakes on.
    auto result = std::make_shared<std::promise<SimResponse>>();
    std::future<SimResponse> resp = result->get_future();
    start(req, nullptr, onRow, [result](SimResponse done) {
        result->set_value(std::move(done));
    });
    return resp.get();
}

bool
SimService::openCache(const std::string &dir, std::string &error)
{
    auto store = std::make_shared<driver::ResultStore>();
    if (!store->openDir(dir)) {
        error = strfmt("cannot open cache dir \"%s\"", dir.c_str());
        return false;
    }
    MutexLock lock(_cacheMutex);
    _sharedStore = std::move(store);
    _sharedDir = dir;
    return true;
}

std::string
SimService::cacheDir() const
{
    MutexLock lock(_cacheMutex);
    return _sharedDir;
}

} // namespace momsim::svc
