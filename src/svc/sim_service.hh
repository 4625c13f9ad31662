/**
 * @file
 * SimService — the embeddable, library-first execution engine behind
 * the momsim CLI's `batch` mode and any in-process client.
 *
 * One SimService owns the process-wide simulation resources exactly
 * once — the point-level PointScheduler (worker pool + singleflight
 * dedup + in-memory LRU row cache), one WorkloadRepo per scale
 * (paper / tiny) and, per request, the ResultStore a request's
 * cacheDir names — and executes SimRequests submitted from any number
 * of client threads. submit() is thread-safe and never calls exit():
 * every outcome, including the bad-workload and bad-shard cases the
 * old bench binaries died on, comes back as a structured SimResponse.
 *
 * Determinism contract: a SimRequest's response rows depend only on
 * the request (and its cache contents), never on submission
 * concurrency — N client threads submitting concurrently produce
 * byte-identical responses (modulo the explicitly-timed fields) to a
 * serial replay. Requests no longer serialize on a run lock: every
 * request decomposes into content-addressed sweep points feeding the
 * shared scheduler, which interleaves *all* active requests fairly
 * (no head-of-line blocking behind a big sweep), joins duplicate
 * points in flight instead of re-simulating them, and replays
 * recently-computed rows from memory. Rows are deterministic per
 * point, so none of that is observable in response bytes — only in
 * the counters() gauges.
 *
 * Response accounting keeps its planning-time meaning: cachedPoints /
 * simulatedPoints describe *disk-store* state when the request was
 * planned, so identical request streams produce identical responses
 * no matter what the scheduler coalesced at run time.
 */

#ifndef MOMSIM_SVC_SIM_SERVICE_HH
#define MOMSIM_SVC_SIM_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "workloads/workload_repo.hh"

namespace momsim::svc
{

struct SimServiceConfig
{
    int jobs = 0;               ///< scheduler workers and workload
                                ///< synthesis threads; 0 => all hardware
    /** In-memory LRU row-cache capacity, in rows (0 disables): warm
     *  points replay from memory without touching the disk store. */
    size_t memCacheRows = 4096;
};

class SimService
{
  public:
    explicit SimService(SimServiceConfig cfg = {});

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /** Per-row callback of submit: the planned point (with its cache
     *  key) and its row. Serialized. */
    using RowFn = driver::ExperimentRunner::RowFn;

    /**
     * Execute @p req and return its response. Thread-safe; concurrent
     * callers' sweep points interleave on the shared scheduler. Never
     * exits, never throws for request-shaped problems (only for
     * simulator bugs, which panic as they always have).
     *
     * @p onRow, when given, sees every row of the response: disk-cache
     * hits first in sweep order, then the rest as they complete. A
     * request naming `points` runs only those (see SimRequest::points)
     * and its response still reports the full sweep's totalPoints, as
     * a sharded request does.
     */
    SimResponse submit(const SimRequest &req, const RowFn &onRow = nullptr);

    /** Requests currently inside submit(). The serve ping reports
     *  this. */
    int inFlight() const
    {
        return _active.load(std::memory_order_relaxed);
    }

    /** Points of in-flight requests naming `points` (the fabric's
     *  deals) that have not finished yet. The serve ping reports this. */
    long pendingPoints() const
    {
        return _pendingPoints.load(std::memory_order_relaxed);
    }

    /** Milliseconds since this service was constructed. */
    uint64_t uptimeMs() const;

    /** The scheduler's gauge set (points simulated / dedup-joined /
     *  memory-cache hits / disk-cache hits, ...) — the serve ping and
     *  `momsim batch --stats` report these. */
    driver::PointScheduler::Counters counters() const
    {
        return _sched.counters();
    }

    /**
     * Open (or create) @p dir as the service-lifetime result store.
     * Requests that name no cacheDir of their own — and requests
     * naming this same dir — then share one warm store: rows cached
     * by any earlier request (or a previous process) replay instead
     * of re-simulating, the amortization a long-lived daemon exists
     * for. Requests naming a *different* cacheDir still get their own
     * per-request store, as before. Thread-safe; false + @p error if
     * the directory cannot be opened.
     */
    bool openCache(const std::string &dir, std::string &error);

    /** The directory openCache() bound, or "" when none. */
    std::string cacheDir() const;

    /** The repo serving requests at @p quick scale. */
    workloads::WorkloadRepo &repo(bool quick)
    {
        return quick ? _tinyRepo : _paperRepo;
    }

  private:
    /** Build the grid a request describes, or a structured error. */
    bool resolveGrid(const SimRequest &req, driver::SweepGrid &grid,
                     std::string &benchName, SimResponse &error) const;

    const std::chrono::steady_clock::time_point _start;
    driver::PointScheduler _sched;
    std::atomic<int> _active{ 0 };
    std::atomic<long> _pendingPoints{ 0 };
    /** One --jobs synthesis budget shared by both scales' repos. */
    std::shared_ptr<workloads::BuildPool> _buildPool;
    workloads::WorkloadRepo _paperRepo;
    workloads::WorkloadRepo _tinyRepo;

    // The service-lifetime store (openCache). _cacheMutex guards the
    // *binding* — which store/dir the service hands out; a request's
    // shared_ptr copy keeps its store alive across a rebind, and the
    // store itself is internally thread-safe for concurrent requests.
    mutable momsim::Mutex _cacheMutex;
    std::shared_ptr<driver::ResultStore> _sharedStore
        GUARDED_BY(_cacheMutex);
    std::string _sharedDir GUARDED_BY(_cacheMutex);
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_SIM_SERVICE_HH
