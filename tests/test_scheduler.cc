/**
 * @file
 * Tests for the point-level scheduler (src/driver/point_scheduler.*)
 * and the concurrency contracts layered on it: singleflight dedup
 * executes every point exactly once no matter how many concurrent
 * requests ask for it, the in-memory LRU row cache replays within its
 * capacity and re-simulates past it, dispatch is round-robin-fair
 * across lanes (a small request never waits behind a large sweep) and
 * FIFO within one, a request's completion runs once, after its last
 * delivery, exec failures reach it and wait(), concurrent duplicate
 * SimService submissions stay byte-identical to a serial replay, and
 * two ResultStore instances sharing one directory append whole lines.
 *
 * The scheduler-level tests inject a stub ExecFn and run a single
 * worker, gating the first execution on a latch — so the interleaving
 * under test (who queued what while the worker was busy) is fully
 * deterministic, not a matter of sleeps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"

namespace momsim::driver
{
namespace
{

ExperimentSpec
specNamed(const std::string &id)
{
    ExperimentSpec spec;
    spec.id = id;
    return spec;
}

ResultRow
rowFor(const ExperimentSpec &spec)
{
    ResultRow row;
    row.id = spec.id;
    row.workload = spec.workload;
    row.threads = spec.threads;
    row.seed = spec.seed;
    row.run.cycles = 42;
    return row;
}

/**
 * The deterministic single-worker harness: records the order specs
 * reach exec, and (when armed) blocks the first exec call until the
 * test opens the gate — so the test can stack more requests behind a
 * busy worker and observe exactly what the dispatcher does next.
 */
struct StubExecHarness
{
    std::mutex m;
    std::condition_variable cv;
    bool gateArmed = false;
    bool gateOpen = false;
    bool firstTaken = false;
    bool firstBlocked = false;
    std::vector<std::string> order;     ///< spec ids, execution order

    PointScheduler::ExecFn exec()
    {
        return [this](const std::vector<const ExperimentSpec *> &specs) {
            {
                std::unique_lock<std::mutex> lock(m);
                if (gateArmed && !firstTaken) {
                    firstTaken = true;
                    firstBlocked = true;
                    cv.notify_all();
                    cv.wait(lock, [this] { return gateOpen; });
                }
                for (const ExperimentSpec *spec : specs)
                    order.push_back(spec->id);
            }
            std::vector<ResultRow> rows;
            rows.reserve(specs.size());
            for (const ExperimentSpec *spec : specs)
                rows.push_back(rowFor(*spec));
            return rows;
        };
    }

    /** Block until the worker is inside the gated first exec. */
    void awaitFirstBlocked()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return firstBlocked; });
    }

    void openGate()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            gateOpen = true;
        }
        cv.notify_all();
    }

    size_t indexOf(const std::string &id) const
    {
        for (size_t i = 0; i < order.size(); ++i) {
            if (order[i] == id)
                return i;
        }
        return order.size();
    }
};

PointScheduler::Config
oneWorker(size_t memCacheRows = 4096)
{
    PointScheduler::Config cfg;
    cfg.workers = 1;
    cfg.memCacheRows = memCacheRows;
    return cfg;
}

// ---------------------------------------------------------------------------
// Singleflight dedup + memory cache (stub exec)
// ---------------------------------------------------------------------------

TEST(PointScheduler, DuplicateJoinsInFlightThenReplaysFromMemory)
{
    StubExecHarness h;
    h.gateArmed = true;
    PointScheduler sched(oneWorker());

    ExperimentSpec dup = specNamed("dup");
    ExperimentSpec extra = specNamed("extra");

    std::vector<ResultRow> got(3);
    auto deliverTo = [&](size_t base) {
        return [&got, base](size_t slot, const ResultRow &row) {
            got[base + slot] = row;
        };
    };

    PointScheduler::Request a(sched, h.exec(), deliverTo(0));
    a.add(dup, "key-dup");
    h.awaitFirstBlocked();      // the worker is now executing "dup"

    // While "dup" executes for A, B asking for the same key must join
    // that execution, and B's second point queues normally.
    PointScheduler::Request b(sched, h.exec(), deliverTo(1));
    b.add(dup, "key-dup");
    b.add(extra, "key-extra");

    h.openGate();
    a.wait();
    b.wait();

    // Exactly-once: "dup" reached exec a single time.
    EXPECT_EQ(h.order, (std::vector<std::string> { "dup", "extra" }));
    EXPECT_EQ(got[0].id, "dup");
    EXPECT_EQ(got[1].id, "dup");    // B's joined copy of A's execution
    EXPECT_EQ(got[2].id, "extra");

    PointScheduler::Counters c = sched.counters();
    EXPECT_EQ(c.pointsSimulated, 2u);
    EXPECT_EQ(c.pointsDeduped, 1u);
    EXPECT_EQ(c.memCacheHits, 0u);

    // After completion the row sits in the LRU: a third request for the
    // same key never reaches exec at all.
    PointScheduler::Request later(sched, h.exec(),
                                  [&](size_t, const ResultRow &row) {
                                      EXPECT_EQ(row.id, "dup");
                                  });
    later.add(dup, "key-dup");
    later.wait();
    EXPECT_EQ(h.order.size(), 2u);
    c = sched.counters();
    EXPECT_EQ(c.pointsSimulated, 2u);
    EXPECT_EQ(c.memCacheHits, 1u);
    EXPECT_EQ(c.requestsStarted, 3u);
    EXPECT_EQ(c.activeRequests, 0);
}

TEST(PointScheduler, LruCapacityBoundsTheRowCache)
{
    StubExecHarness h;
    PointScheduler sched(oneWorker(/*memCacheRows=*/1));

    ExperimentSpec k1 = specNamed("k1");
    ExperimentSpec k2 = specNamed("k2");
    auto drop = [](size_t, const ResultRow &) {};
    auto oneShot = [&](const ExperimentSpec &spec, const char *key) {
        PointScheduler::Request req(sched, h.exec(), drop);
        req.add(spec, key);
        req.wait();
    };

    oneShot(k1, "key1");        // simulated, cached
    oneShot(k1, "key1");        // memory hit
    oneShot(k2, "key2");        // simulated, evicts key1 (capacity 1)
    oneShot(k1, "key1");        // simulated again

    PointScheduler::Counters c = sched.counters();
    EXPECT_EQ(c.pointsSimulated, 3u);
    EXPECT_EQ(c.memCacheHits, 1u);
    EXPECT_EQ(h.order,
              (std::vector<std::string> { "k1", "k2", "k1" }));
}

TEST(PointScheduler, ZeroMemCacheRowsDisablesTheRowCache)
{
    StubExecHarness h;
    PointScheduler sched(oneWorker(/*memCacheRows=*/0));

    ExperimentSpec k1 = specNamed("k1");
    auto drop = [](size_t, const ResultRow &) {};
    for (int i = 0; i < 2; ++i) {
        PointScheduler::Request req(sched, h.exec(), drop);
        req.add(k1, "key1");
        req.wait();
    }

    PointScheduler::Counters c = sched.counters();
    EXPECT_EQ(c.pointsSimulated, 2u);
    EXPECT_EQ(c.memCacheHits, 0u);
}

// ---------------------------------------------------------------------------
// Fair dispatch / no head-of-line blocking (stub exec)
// ---------------------------------------------------------------------------

TEST(PointScheduler, SmallRequestIsNotBlockedBehindALargeSweep)
{
    StubExecHarness h;
    h.gateArmed = true;
    PointScheduler sched(oneWorker());

    std::vector<ExperimentSpec> big;
    for (int i = 0; i < 6; ++i)
        big.push_back(specNamed(strfmt("big%d", i)));
    std::vector<ExperimentSpec> small;
    for (int i = 0; i < 2; ++i)
        small.push_back(specNamed(strfmt("small%d", i)));

    auto drop = [](size_t, const ResultRow &) {};
    PointScheduler::Request a(sched, h.exec(), drop);
    for (const ExperimentSpec &spec : big)
        a.add(spec, spec.id);
    h.awaitFirstBlocked();      // worker busy on big0, 5 groups queued

    PointScheduler::Request b(sched, h.exec(), drop);
    for (const ExperimentSpec &spec : small)
        b.add(spec, spec.id);

    h.openGate();
    a.wait();
    b.wait();

    // Round-robin dispatch interleaves B within one rotation: both of
    // B's points execute while A still has queued work, instead of
    // waiting for A's whole sweep (the head-of-line-blocking failure
    // this scheduler exists to prevent).
    ASSERT_EQ(h.order.size(), 8u);
    EXPECT_LT(h.indexOf("small1"), h.indexOf("big3"));
    EXPECT_LT(h.indexOf("small0"), h.indexOf("small1"));
}

TEST(PointScheduler, DispatchRotatesFairlyAcrossThreeRequests)
{
    StubExecHarness h;
    h.gateArmed = true;
    PointScheduler sched(oneWorker());

    // Three requests of three points each, all queued while the single
    // worker sits inside request A's gated first execution.
    std::vector<ExperimentSpec> specs;
    for (char r = 'A'; r <= 'C'; ++r) {
        for (int i = 0; i < 3; ++i)
            specs.push_back(specNamed(strfmt("%c%d", r, i)));
    }
    auto drop = [](size_t, const ResultRow &) {};
    PointScheduler::Request a(sched, h.exec(), drop);
    for (int i = 0; i < 3; ++i)
        a.add(specs[static_cast<size_t>(i)], specs[static_cast<size_t>(i)].id);
    h.awaitFirstBlocked();

    PointScheduler::Request b(sched, h.exec(), drop);
    PointScheduler::Request c(sched, h.exec(), drop);
    for (int i = 0; i < 3; ++i) {
        b.add(specs[static_cast<size_t>(3 + i)],
              specs[static_cast<size_t>(3 + i)].id);
        c.add(specs[static_cast<size_t>(6 + i)],
              specs[static_cast<size_t>(6 + i)].id);
    }

    h.openGate();
    a.wait();
    b.wait();
    c.wait();

    // order[0] is A's gated point; afterwards every rotation of three
    // picks must touch three *distinct* requests while all three still
    // have queued work — that is the fairness contract.
    ASSERT_EQ(h.order.size(), 9u);
    for (size_t base : { size_t(1), size_t(4) }) {
        std::set<char> owners;
        for (size_t i = base; i < base + 3; ++i)
            owners.insert(h.order[i][0]);
        EXPECT_EQ(owners.size(), 3u)
            << "picks " << base << ".." << base + 2
            << " starved a request";
    }
}

// ---------------------------------------------------------------------------
// Failure propagation
// ---------------------------------------------------------------------------

TEST(PointScheduler, ExecFailureRethrowsFromWait)
{
    PointScheduler sched(oneWorker());
    ExperimentSpec spec = specNamed("boom");
    PointScheduler::Request req(
        sched,
        [](const std::vector<const ExperimentSpec *> &)
            -> std::vector<ResultRow> {
            throw std::runtime_error("injected exec failure");
        },
        [](size_t, const ResultRow &) { FAIL() << "delivered a row"; });
    req.add(spec, "key-boom");
    EXPECT_THROW(req.wait(), std::runtime_error);
    EXPECT_EQ(sched.counters().pointsSimulated, 0u);
}

// ---------------------------------------------------------------------------
// Completions and lanes (stub exec)
// ---------------------------------------------------------------------------

/** Counts completions and lets the test block until some landed. */
struct CompletionLog
{
    std::mutex m;
    std::condition_variable cv;
    int calls = 0;
    std::exception_ptr error;
    std::thread::id thread;

    PointScheduler::DoneFn done()
    {
        return [this](std::exception_ptr e) {
            std::lock_guard<std::mutex> lock(m);
            calls += 1;
            error = e;
            thread = std::this_thread::get_id();
            cv.notify_all();
        };
    }

    void awaitCalls(int n)
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return calls >= n; });
    }

    int count()
    {
        std::lock_guard<std::mutex> lock(m);
        return calls;
    }
};

TEST(PointScheduler, CompletionRunsOnceAfterTheLastDelivery)
{
    StubExecHarness h;
    h.gateArmed = true;
    PointScheduler sched(oneWorker());
    const ExperimentSpec a0 = specNamed("a0"), a1 = specNamed("a1");

    CompletionLog log;
    std::atomic<int> delivered { 0 };
    int deliveredAtDone = -1;
    int activeAtDone = -1;
    {
        PointScheduler::Request req(
            sched, h.exec(),
            [&](size_t, const ResultRow &) { delivered.fetch_add(1); },
            [&, done = log.done()](std::exception_ptr e) {
                deliveredAtDone = delivered.load();
                activeAtDone = sched.counters().activeRequests;
                done(e);
            });
        req.add(a0, a0.id);
        req.add(a1, a1.id);
        req.close();
    }   // an asynchronous handle does not wait
    h.awaitFirstBlocked();
    EXPECT_EQ(log.count(), 0);
    h.openGate();
    log.awaitCalls(1);

    EXPECT_EQ(deliveredAtDone, 2);
    EXPECT_EQ(activeAtDone, 0);     // it left the rotation first
    EXPECT_EQ(log.error, nullptr);
    EXPECT_NE(log.thread, std::this_thread::get_id());

    // Deliveries alone do not complete a request its owner has not
    // closed: the completion waits for close().
    const ExperimentSpec b0 = specNamed("b0");
    std::mutex m;
    std::condition_variable cv;
    bool landed = false;
    PointScheduler::Request open(
        sched, h.exec(),
        [&](size_t, const ResultRow &) {
            std::lock_guard<std::mutex> lock(m);
            landed = true;
            cv.notify_all();
        },
        log.done());
    open.add(b0, b0.id);
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return landed; });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(log.count(), 1);
    open.close();
    log.awaitCalls(2);
    open.close();                   // idempotent: still one call
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(log.count(), 2);
    EXPECT_EQ(sched.counters().activeRequests, 0);
}

TEST(PointScheduler, CompletionRunsOnTheCallerWhenEveryPointHitsMemory)
{
    StubExecHarness h;
    PointScheduler sched(oneWorker());
    const ExperimentSpec p0 = specNamed("p0"), p1 = specNamed("p1");
    auto drop = [](size_t, const ResultRow &) {};
    {
        PointScheduler::Request warm(sched, h.exec(), drop);
        warm.add(p0, p0.id);
        warm.add(p1, p1.id);
        warm.wait();
    }

    CompletionLog log;
    int delivered = 0;
    PointScheduler::Request req(
        sched, h.exec(), [&](size_t, const ResultRow &) { ++delivered; },
        log.done());
    req.add(p0, p0.id);
    req.add(p1, p1.id);
    EXPECT_EQ(delivered, 2);        // both replayed inside add()
    EXPECT_EQ(log.count(), 0);
    req.close();
    // Nothing was left to simulate: close() itself ran the completion.
    EXPECT_EQ(log.count(), 1);
    EXPECT_EQ(log.thread, std::this_thread::get_id());
    EXPECT_EQ(sched.counters().memCacheHits, 2u);
    EXPECT_EQ(sched.counters().pointsSimulated, 2u);
    EXPECT_EQ(h.order.size(), 2u);
}

TEST(PointScheduler, ExecFailureReachesTheCompletion)
{
    PointScheduler sched(oneWorker());
    const ExperimentSpec spec = specNamed("boom");
    CompletionLog log;
    PointScheduler::Request req(
        sched,
        [](const std::vector<const ExperimentSpec *> &)
            -> std::vector<ResultRow> {
            throw std::runtime_error("injected exec failure");
        },
        [](size_t, const ResultRow &) { FAIL() << "delivered a row"; },
        log.done());
    req.add(spec, "key-boom");
    req.close();
    log.awaitCalls(1);
    ASSERT_NE(log.error, nullptr);
    try {
        std::rethrow_exception(log.error);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "injected exec failure");
    }
    EXPECT_EQ(log.count(), 1);
    EXPECT_EQ(sched.counters().activeRequests, 0);
}

TEST(PointScheduler, LaneIsFifoAndLanesShareWorkersRoundRobin)
{
    StubExecHarness h;
    h.gateArmed = true;
    PointScheduler sched(oneWorker());
    std::vector<ExperimentSpec> a, b, c;
    for (int i = 0; i < 3; ++i) {
        a.push_back(specNamed(strfmt("a%d", i)));
        c.push_back(specNamed(strfmt("c%d", i)));
    }
    for (int i = 0; i < 2; ++i)
        b.push_back(specNamed(strfmt("b%d", i)));

    // Requests a and b share one lane, in that order; c has no lane,
    // so it is a lane of its own. All queue while the single worker
    // sits inside a's gated first execution.
    CompletionLog log;
    auto drop = [](size_t, const ResultRow &) {};
    const PointScheduler::Lane lane = sched.newLane();
    auto start = [&](const std::vector<ExperimentSpec> &specs,
                     PointScheduler::Lane l) {
        PointScheduler::Request req(sched, h.exec(), drop, log.done(),
                                    std::move(l));
        for (const ExperimentSpec &spec : specs)
            req.add(spec, spec.id);
    };
    start(a, lane);
    h.awaitFirstBlocked();
    start(b, lane);
    start(c, nullptr);
    EXPECT_EQ(sched.counters().activeRequests, 3);

    h.openGate();
    log.awaitCalls(3);

    // The lane serves a, then b, however many points a has; the two
    // lanes alternate on the worker. (The cursor had wrapped back to
    // the shared lane when c's lane joined, so that lane goes first.)
    const std::vector<std::string> want = { "a0", "a1", "c0", "a2",
                                            "c1", "b0", "c2", "b1" };
    EXPECT_EQ(h.order, want);
    EXPECT_EQ(sched.counters().activeRequests, 0);
}

// ---------------------------------------------------------------------------
// SimService: concurrent duplicate submissions
// ---------------------------------------------------------------------------

svc::SimRequest
tinySweep(const std::string &id)
{
    svc::SimRequest req;
    req.id = id;
    req.client = "t";
    req.isas = { "mmx" };
    req.threads = { 1, 2 };
    req.memModels = { "perfect" };
    req.quick = true;
    req.maxCycles = 20000;
    return req;
}

TEST(SimServiceScheduler, ConcurrentDuplicatesSimulateEachPointOnce)
{
    svc::SimServiceConfig cfg;
    cfg.jobs = 2;
    svc::SimService service(cfg);

    constexpr int kClients = 4;
    std::vector<svc::SimResponse> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&service, &responses, i] {
            responses[static_cast<size_t>(i)] =
                service.submit(tinySweep("dup"));
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Byte-identity: every concurrent response equals a serial replay
    // on a fresh service, timing zeroed.
    svc::SimService fresh;
    const std::string want = fresh.submit(tinySweep("dup")).toJson(false);
    for (const svc::SimResponse &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.errorMessage;
        EXPECT_EQ(resp.toJson(false), want);
    }

    // Exactly-once: the sweep has 2 points; 4 concurrent copies must
    // leave the simulated counter at 2, with the other 6 answers
    // accounted as in-flight joins or memory-cache replays.
    const PointScheduler::Counters c = service.counters();
    EXPECT_EQ(c.pointsSimulated, 2u);
    EXPECT_EQ(c.pointsDeduped + c.memCacheHits,
              static_cast<uint64_t>(2 * (kClients - 1)));
    EXPECT_EQ(c.requestsStarted, static_cast<uint64_t>(kClients));
    EXPECT_EQ(c.activeRequests, 0);
    EXPECT_EQ(c.diskCacheHits, 0u);
}

// ---------------------------------------------------------------------------
// ResultStore: concurrent appends to one directory
// ---------------------------------------------------------------------------

TEST(ResultStoreConcurrency, InterleavedPutsFromTwoStoresStayLineAtomic)
{
    const std::string dir = "test_scheduler.store";
    std::remove((dir + "/" + ResultStore::kFileName).c_str());

    // Two in-process store instances on the same directory — the shape
    // of two requests carrying the same --cache-dir — hammered from
    // four threads. Every row must survive as its own parseable line.
    ResultStore a, b;
    ASSERT_TRUE(a.openDir(dir));
    ASSERT_TRUE(b.openDir(dir));

    constexpr int kThreads = 4;
    constexpr int kRowsPerThread = 50;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&a, &b, t] {
            ResultStore &store = (t % 2) ? b : a;
            for (int i = 0; i < kRowsPerThread; ++i) {
                ExperimentSpec spec =
                    specNamed(strfmt("row-%d-%d", t, i));
                spec.seed = static_cast<uint64_t>(t) * 1000u +
                            static_cast<uint64_t>(i);
                store.put(strfmt("k-%d-%d", t, i), rowFor(spec));
            }
        });
    }
    for (std::thread &t : writers)
        t.join();

    ResultStore reopened;
    ASSERT_TRUE(reopened.openDir(dir));
    ASSERT_EQ(reopened.size(),
              static_cast<size_t>(kThreads * kRowsPerThread));
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kRowsPerThread; ++i) {
            ResultRow row;
            ASSERT_TRUE(reopened.find(strfmt("k-%d-%d", t, i), row));
            EXPECT_EQ(row.id, strfmt("row-%d-%d", t, i));
            EXPECT_EQ(row.seed, static_cast<uint64_t>(t) * 1000u +
                                    static_cast<uint64_t>(i));
        }
    }
}

} // namespace
} // namespace momsim::driver
