#include "driver/point_scheduler.hh"

#include <algorithm>
#include <deque>
#include <list>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "driver/experiment.hh"

namespace momsim::driver
{

namespace
{

/** One scheduled-but-unfinished point of a request. */
struct PendingPoint
{
    const ExperimentSpec *spec = nullptr;
    std::string key;
    size_t slot = 0;
};

} // namespace

/**
 * Mutable request fields (nextSlot, queue, undelivered, error) are
 * guarded by the owning PointSchedulerState's mutex. That guard is not
 * expressible as a GUARDED_BY here — the capability lives on another
 * object — so the scheduler's REQUIRES-annotated sections are where
 * the analysis enforces it; exec/deliver are set once at registration
 * and immutable after.
 */
struct PointRequestState
{
    PointScheduler::ExecFn exec;
    PointScheduler::DeliverFn deliver;
    size_t nextSlot = 0;

    /** Points awaiting a worker, in add() order. */
    std::deque<PendingPoint> queue;
    /** Points added but not yet delivered or failed. */
    size_t undelivered = 0;
    /** First execution failure; rethrown from wait(). */
    std::exception_ptr error;
};

struct PointSchedulerState
{
    /** A point queued or executing; joiners receive its row too. */
    struct Inflight
    {
        std::vector<std::pair<std::shared_ptr<PointRequestState>, size_t>>
            joiners;
    };

    explicit PointSchedulerState(size_t cacheRows)
        : memCacheRows(cacheRows)
    {}

    Mutex mutex;
    CondVar workCv;                     ///< workers: "a point is queued"
    CondVar doneCv;                     ///< requests: "a delivery landed"

    std::vector<std::shared_ptr<PointRequestState>> active
        GUARDED_BY(mutex);
    size_t cursor GUARDED_BY(mutex) = 0;    ///< round-robin position

    std::unordered_map<std::string, Inflight> inflight GUARDED_BY(mutex);

    // LRU row cache: list front = most recent; index into the list.
    const size_t memCacheRows;          ///< capacity; fixed at creation
    std::list<std::pair<std::string, ResultRow>> lru GUARDED_BY(mutex);
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, ResultRow>>::iterator>
        lruIndex GUARDED_BY(mutex);

    PointScheduler::Counters counters GUARDED_BY(mutex);

    bool stop GUARDED_BY(mutex) = false;
    std::vector<std::thread> workers;   ///< ctor/dtor only

    bool anyQueuedLocked() const REQUIRES(mutex)
    {
        for (const auto &req : active) {
            if (!req->queue.empty())
                return true;
        }
        return false;
    }

    bool lruFindLocked(const std::string &key, ResultRow &out)
        REQUIRES(mutex)
    {
        auto it = lruIndex.find(key);
        if (it == lruIndex.end())
            return false;
        lru.splice(lru.begin(), lru, it->second);   // touch: move to MRU
        out = lru.front().second;
        return true;
    }

    void lruInsertLocked(const std::string &key, const ResultRow &row)
        REQUIRES(mutex)
    {
        if (memCacheRows == 0)
            return;
        auto it = lruIndex.find(key);
        if (it != lruIndex.end()) {
            lru.splice(lru.begin(), lru, it->second);
            lru.front().second = row;
            return;
        }
        lru.emplace_front(key, row);
        lruIndex[key] = lru.begin();
        while (lru.size() > memCacheRows) {
            lruIndex.erase(lru.back().first);
            lru.pop_back();
        }
    }
};

PointScheduler::PointScheduler() : PointScheduler(Config {}) {}

PointScheduler::PointScheduler(Config cfg)
    : _state(std::make_unique<PointSchedulerState>(cfg.memCacheRows))
{
    unsigned n = cfg.workers > 0
                     ? static_cast<unsigned>(cfg.workers)
                     : std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    _state->workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        _state->workers.emplace_back([this] { workerLoop(); });
}

PointScheduler::~PointScheduler()
{
    {
        MutexLock lock(_state->mutex);
        _state->stop = true;
    }
    _state->workCv.notify_all();
    for (std::thread &t : _state->workers)
        t.join();
}

int
PointScheduler::workers() const
{
    return static_cast<int>(_state->workers.size());
}

PointScheduler::Counters
PointScheduler::counters() const
{
    MutexLock lock(_state->mutex);
    return _state->counters;
}

void
PointScheduler::noteDiskCacheHits(uint64_t n)
{
    if (n == 0)
        return;
    MutexLock lock(_state->mutex);
    _state->counters.diskCacheHits += n;
}

std::shared_ptr<PointRequestState>
PointScheduler::registerRequest(ExecFn exec, DeliverFn deliver)
{
    auto req = std::make_shared<PointRequestState>();
    req->exec = std::move(exec);
    req->deliver = std::move(deliver);
    MutexLock lock(_state->mutex);
    _state->active.push_back(req);
    _state->counters.requestsStarted += 1;
    _state->counters.activeRequests =
        static_cast<int>(_state->active.size());
    return req;
}

void
PointScheduler::addPoint(const std::shared_ptr<PointRequestState> &req,
                         const ExperimentSpec &spec,
                         const std::string &key)
{
    ResultRow hit;
    size_t slot;
    {
        MutexLock lock(_state->mutex);
        slot = req->nextSlot++;

        if (_state->lruFindLocked(key, hit)) {
            _state->counters.memCacheHits += 1;
            // fall through to deliver outside the lock
        } else if (auto it = _state->inflight.find(key);
                   it != _state->inflight.end()) {
            // Singleflight: ride the execution some request already
            // queued — this is the "N concurrent identical sweeps cost
            // ~1x" path.
            it->second.joiners.emplace_back(req, slot);
            _state->counters.pointsDeduped += 1;
            req->undelivered += 1;
            return;
        } else {
            _state->inflight.emplace(key,
                                     PointSchedulerState::Inflight {});
            req->queue.push_back(PendingPoint { &spec, key, slot });
            req->undelivered += 1;
            _state->workCv.notify_one();
            return;
        }
    }
    req->deliver(slot, hit);
}

void
PointScheduler::waitRequest(const std::shared_ptr<PointRequestState> &req)
{
    MutexLock lock(_state->mutex);
    while (req->undelivered != 0)
        _state->doneCv.wait(_state->mutex);

    // Leave the rotation without skipping anyone: removing an entry
    // before the cursor shifts the request it names down one slot.
    auto &active = _state->active;
    const auto pos = std::find(active.begin(), active.end(), req);
    if (static_cast<size_t>(pos - active.begin()) < _state->cursor)
        _state->cursor -= 1;
    active.erase(pos);
    if (_state->cursor >= active.size())
        _state->cursor = 0;
    _state->counters.activeRequests = static_cast<int>(active.size());

    std::exception_ptr error = req->error;
    req->error = nullptr;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
PointScheduler::workerLoop()
{
    PointSchedulerState &s = *_state;
    MutexLock lock(s.mutex);
    for (;;) {
        while (!s.stop && !s.anyQueuedLocked())
            s.workCv.wait(s.mutex);
        if (s.stop)
            return;

        // Fair dispatch: scan the active requests round-robin from the
        // rotating cursor and take ONE point from the first that has
        // work — so every active request gets a worker within one
        // rotation, regardless of how deep any single request's queue
        // is.
        std::shared_ptr<PointRequestState> req;
        const size_t n = s.active.size();
        for (size_t i = 0; i < n; ++i) {
            auto &cand = s.active[(s.cursor + i) % n];
            if (!cand->queue.empty()) {
                req = cand;
                s.cursor = (s.cursor + i + 1) % n;
                break;
            }
        }
        if (!req)
            continue;       // raced another worker; re-wait
        PendingPoint point = std::move(req->queue.front());
        req->queue.pop_front();
        lock.unlock();

        ResultRow row;
        std::exception_ptr error;
        try {
            std::vector<ResultRow> rows = req->exec({ point.spec });
            if (rows.size() != 1)
                throw std::runtime_error(
                    "point scheduler: exec returned wrong row count");
            row = std::move(rows.front());
        } catch (...) {
            error = std::current_exception();
        }

        // Resolve the point under the lock: retire the in-flight entry,
        // collect the owner + joiners, publish to the LRU — then run
        // the delivery callbacks outside the lock.
        lock.lock();
        auto it = s.inflight.find(point.key);
        MOMSIM_ASSERT(it != s.inflight.end(),
                      "executed point missing from inflight map");
        std::vector<std::pair<std::shared_ptr<PointRequestState>, size_t>>
            deliveries = std::move(it->second.joiners);
        deliveries.emplace(deliveries.begin(), req, point.slot);
        s.inflight.erase(it);
        if (error) {
            for (const auto &d : deliveries) {
                if (!d.first->error)
                    d.first->error = error;
                d.first->undelivered -= 1;
            }
            lock.unlock();
            s.doneCv.notify_all();
            lock.lock();
            continue;
        }
        s.counters.pointsSimulated += 1;
        s.lruInsertLocked(point.key, row);
        lock.unlock();

        for (const auto &d : deliveries) {
            try {
                d.first->deliver(d.second, row);
            } catch (...) {
                MutexLock errLock(s.mutex);
                if (!d.first->error)
                    d.first->error = std::current_exception();
            }
        }

        lock.lock();
        for (const auto &d : deliveries)
            d.first->undelivered -= 1;
        lock.unlock();
        s.doneCv.notify_all();
        lock.lock();
    }
}

PointScheduler::Request::Request(PointScheduler &sched, ExecFn exec,
                                 DeliverFn deliver)
    : _sched(sched),
      _state(sched.registerRequest(std::move(exec), std::move(deliver)))
{}

PointScheduler::Request::~Request()
{
    if (_waited)
        return;
    // A handle abandoned without wait() still has to drain (workers
    // hold references to its state) — but a destructor cannot rethrow.
    try {
        wait();
    } catch (...) {
    }
}

void
PointScheduler::Request::add(const ExperimentSpec &spec,
                             const std::string &key)
{
    MOMSIM_ASSERT(!_waited, "add() after wait()");
    _sched.addPoint(_state, spec, key);
}

void
PointScheduler::Request::wait()
{
    if (_waited)
        return;
    _waited = true;
    _sched.waitRequest(_state);
}

} // namespace momsim::driver
