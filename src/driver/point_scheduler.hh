/**
 * @file
 * PointScheduler — the process-wide, point-level execution engine
 * behind concurrent request serving.
 *
 * Every submitted sweep (a `momsim batch` line, a serve connection's
 * request, a coordinator's deal) decomposes into content-addressed
 * sweep points; this scheduler owns the one worker pool they all feed,
 * and layers three request-path properties on top of raw execution:
 *
 *  - **Singleflight dedup**: a point already queued or executing for
 *    another request is *joined*, not re-simulated. The key is the
 *    existing result-cache key (canonical id + config fingerprint +
 *    workload fingerprint + schema/sim versions), so "same point"
 *    means byte-identical row by construction — N concurrent identical
 *    sweeps cost ~1x simulation instead of Nx.
 *  - **In-memory LRU row cache**: recently completed rows are served
 *    from memory without touching the disk ResultStore, bounded at
 *    `memCacheRows` rows (0 disables).
 *  - **Fair interleaved dispatch**: workers pick the next point
 *    round-robin across *active requests*, not FIFO across the global
 *    queue — a 2-point request submitted behind a 600-point sweep gets
 *    its points onto a worker within one rotation instead of waiting
 *    for the whole sweep (no head-of-line blocking). Within one
 *    request, points run in add() order; ExperimentRunner::run adds a
 *    sweep's heaviest points first, so the sweep's tail stays short.
 *
 * Determinism contract: rows are deterministic per point and the key
 * embeds everything that could change them, so whether a request's row
 * was freshly simulated, joined from another request's in-flight
 * execution, or replayed from the memory cache is *unobservable* in
 * the bytes delivered — only the gauge counters can tell. All existing
 * byte-identity gates therefore hold verbatim over this scheduler.
 *
 * Threading: every public entry point is thread-safe. Requests are
 * driven by their submitting thread (add points, then wait); delivery
 * callbacks fire on scheduler workers (or on the submitting thread for
 * memory-cache hits), serialized per request by the caller's own lock
 * if it needs one (ExperimentRunner::run takes one).
 */

#ifndef MOMSIM_DRIVER_POINT_SCHEDULER_HH
#define MOMSIM_DRIVER_POINT_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/result_sink.hh"

namespace momsim::driver
{

struct ExperimentSpec;
struct PointRequestState;
struct PointSchedulerState;

class PointScheduler
{
  public:
    struct Config
    {
        int workers = 0;            ///< worker threads; <=0 => hardware
        size_t memCacheRows = 4096; ///< LRU row-cache capacity; 0 = off
    };

    /**
     * The scheduler's gauge set, exported by the serve ping and
     * `momsim batch --stats`. Simulated + deduped + memCacheHits +
     * the caller-reported diskCacheHits account for every point every
     * request was answered (exactly-once execution is the dedup
     * acceptance gate: N identical concurrent requests must leave
     * pointsSimulated at 1x the sweep size).
     */
    struct Counters
    {
        uint64_t pointsSimulated = 0;   ///< executed on a worker
        uint64_t pointsDeduped = 0;     ///< joined an in-flight point
        uint64_t memCacheHits = 0;      ///< served from the LRU cache
        uint64_t diskCacheHits = 0;     ///< planning-time store hits
        uint64_t requestsStarted = 0;   ///< Request handles ever opened
        int activeRequests = 0;         ///< handles open right now
    };

    PointScheduler();           ///< default Config
    explicit PointScheduler(Config cfg);
    ~PointScheduler();

    PointScheduler(const PointScheduler &) = delete;
    PointScheduler &operator=(const PointScheduler &) = delete;

    int workers() const;
    Counters counters() const;

    /** Fold planning-time disk-store hits into the gauge set — the
     *  scheduler never sees those points, but the operator counting
     *  "where did my rows come from" should. */
    void noteDiskCacheHits(uint64_t n);

    /** Simulate points on a worker thread; row i answers spec i.
     *  Each dispatched call carries exactly one point. */
    using ExecFn = std::function<std::vector<ResultRow>(
        const std::vector<const ExperimentSpec *> &)>;

    /** Deliver the row of slot @p slot (the add() ordinal) to the
     *  request. Runs on a worker thread, or on the submitting thread
     *  for memory-cache hits; must not throw. */
    using DeliverFn =
        std::function<void(size_t slot, const ResultRow &row)>;

    /**
     * One request's handle on the scheduler. The owning thread add()s
     * every point (specs must stay alive until wait() returns), then
     * wait()s for all deliveries; the handle deregisters from the fair-
     * dispatch rotation when wait() completes. Not thread-safe itself —
     * one driving thread per handle, like a ResultSink.
     */
    class Request
    {
      public:
        Request(PointScheduler &sched, ExecFn exec, DeliverFn deliver);
        ~Request();

        Request(const Request &) = delete;
        Request &operator=(const Request &) = delete;

        /**
         * Schedule one point. Slot ids are the add() ordinals, starting
         * at 0. A memory-cache hit delivers before returning; an
         * in-flight duplicate joins the executing request; otherwise
         * the point queues, FIFO, on this request's own lane.
         */
        void add(const ExperimentSpec &spec, const std::string &key);

        /**
         * Block until every added point was delivered (or failed).
         * Rethrows the first exec failure after the request fully
         * drains. Idempotent.
         */
        void wait();

      private:
        PointScheduler &_sched;
        std::shared_ptr<PointRequestState> _state;
        bool _waited = false;
    };

  private:
    friend class Request;

    std::shared_ptr<PointRequestState>
    registerRequest(ExecFn exec, DeliverFn deliver);
    void addPoint(const std::shared_ptr<PointRequestState> &req,
                  const ExperimentSpec &spec, const std::string &key);
    void waitRequest(const std::shared_ptr<PointRequestState> &req);
    void workerLoop();

    std::unique_ptr<PointSchedulerState> _state;
};

} // namespace momsim::driver

#endif // MOMSIM_DRIVER_POINT_SCHEDULER_HH
