#include "svc/sequencer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "fabric/protocol.hh"
#include "svc/json.hh"

namespace momsim::svc
{

ResponseSequencer::ResponseSequencer(Config cfg) : _cfg(std::move(cfg))
{
    _cfg.parallel = std::max(1, std::min(16, _cfg.parallel));
    if (_cfg.maxPending == 0) {
        // The PR 5 batch bound: enough backlog to keep the submitters
        // busy, small enough that a huge stream against a slow sweep
        // cannot pull the whole unread input into memory.
        _cfg.maxPending = static_cast<size_t>(2 * _cfg.parallel) + 8;
    }
    for (int i = 0; i < _cfg.parallel; ++i)
        _submitters.emplace_back([this] { submitLoop(); });
    _emitter = std::thread([this] { emitLoop(); });
}

ResponseSequencer::~ResponseSequencer()
{
    finish();
}

void
ResponseSequencer::push(std::string line)
{
    if (line.empty())
        return;
    bool shed = false;
    size_t shedSeq = 0;
    {
        MutexLock lock(_mutex);
        if (_writeFailed.load(std::memory_order_relaxed))
            return;     // nothing pushed now can ever be delivered
        if (_cfg.shedOnFull) {
            shed = _pending.size() >= _cfg.maxPending;
        } else {
            while (_pending.size() >= _cfg.maxPending &&
                   !_writeFailed.load(std::memory_order_relaxed))
                _spaceCv.wait(_mutex);
            if (_writeFailed.load(std::memory_order_relaxed))
                return;
        }
        if (shed) {
            // Claim the sequence slot now — ordering is fixed by
            // arrival — but build the response outside the lock; the
            // emitter simply cannot pass this slot until the JSON
            // lands in _ready below.
            shedSeq = _accepted++;
            ++_shed;
        } else {
            _pending.push_back({ _accepted++, std::move(line) });
        }
    }
    if (!shed) {
        _workCv.notify_one();
        return;
    }
    // Answer in-slot without executing: the structured kOverloaded
    // error keeps the response stream in input order and tells the
    // client the request was never run. Serializing it here, not under
    // _mutex, keeps the shed path from stalling submitters mid-burst —
    // exactly when shedding happens.
    SimResponse resp = SimResponse::failure(
        salvageTopLevelId(line), errc::kOverloaded,
        strfmt("request queue full (max %zu pending); request "
               "not executed", _cfg.maxPending));
    resp.client = _cfg.clientTag;
    std::string json = resp.toJson(_cfg.withTiming);
    {
        MutexLock lock(_mutex);
        _ready.emplace(shedSeq, std::move(json));
    }
    _emitCv.notify_one();
}

void
ResponseSequencer::submitLoop()
{
    for (;;) {
        Item item;
        {
            MutexLock lock(_mutex);
            while (_pending.empty() && !_inputDone)
                _workCv.wait(_mutex);
            if (_pending.empty())
                return;
            item = std::move(_pending.front());
            _pending.pop_front();
        }
        _spaceCv.notify_one();
        // Once delivery is dead there is no point simulating: drain
        // the queue so finish() completes, but skip the work.
        std::string json;
        if (!_writeFailed.load(std::memory_order_acquire))
            json = answer(item);
        {
            MutexLock lock(_mutex);
            // Even a dropped item claims its slot (empty marker) so
            // the emitter's in-order cursor can pass it.
            _ready.emplace(item.seq, std::move(json));
        }
        _emitCv.notify_one();
    }
}

std::string
ResponseSequencer::answer(const Item &item)
{
    JsonValue doc;
    std::string error;
    SimRequest req;
    if (parseJson(item.line, doc, error)) {
        const std::string kind = fabric::kindOf(doc);
        if (!kind.empty()) {
            const JsonValue *id = doc.field("id");
            const std::string tag =
                id && id->isString() ? id->text : std::string();
            if (kind == "ping")
                return _cfg.pong(tag);
            return fabric::errorToJson(
                tag, "unknown_kind",
                strfmt("unknown fabric message kind \"%s\"",
                       kind.c_str()));
        }
        if (SimRequest::fromJson(doc, req, error)) {
            driver::ExperimentRunner::RowFn onRow;
            if (req.stream) {
                // Rows queue under the slot's seq; the emitter streams
                // them ahead of the final line, which lands in _ready
                // only after submit returns.
                onRow = [this, seq = item.seq](
                            const driver::PlannedPoint &p,
                            const driver::ResultRow &row) {
                    std::string line;
                    line.reserve(driver::kResultRowBytesHint +
                                 p.key.size());
                    driver::appendStoreLine(line, p.key, row,
                                            _cfg.withTiming);
                    {
                        MutexLock lock(_mutex);
                        if (_writeFailed.load(std::memory_order_relaxed))
                            return;     // undeliverable; drop quietly
                        _chunks[seq].push_back(std::move(line));
                    }
                    _emitCv.notify_one();
                };
            }
            SimResponse resp = _cfg.submit(req, onRow);
            resp.client = req.client.empty() ? _cfg.clientTag : req.client;
            if (req.stream)
                resp.rows.clear();  // every row already went out
            return resp.toJson(_cfg.withTiming);
        }
    }
    SimResponse resp = SimResponse::failure(salvageTopLevelId(item.line),
                                            errc::kBadRequest, error);
    resp.client = _cfg.clientTag;
    return resp.toJson(_cfg.withTiming);
}

void
ResponseSequencer::emitLoop()
{
    size_t next = 0;
    for (;;) {
        std::string json;
        bool isChunk = false;
        {
            MutexLock lock(_mutex);
            for (;;) {
                if (_ready.count(next) != 0)
                    break;
                auto pending = _chunks.find(next);
                if (pending != _chunks.end() && !pending->second.empty())
                    break;
                if (_inputDone && _pending.empty() && next >= _accepted)
                    break;
                _emitCv.wait(_mutex);
            }
            // The head slot's streamed chunks go out as they arrive,
            // strictly before the slot's final response; the cursor
            // only advances on the final, so chunk/final interleaving
            // never reorders across requests.
            auto c = _chunks.find(next);
            if (c != _chunks.end() && !c->second.empty()) {
                json = std::move(c->second.front());
                c->second.pop_front();
                isChunk = true;
            } else {
                auto it = _ready.find(next);
                if (it == _ready.end())
                    return;     // all input drained and emitted
                json = std::move(it->second);
                _ready.erase(it);
                _chunks.erase(next);    // stragglers of a dropped slot
            }
        }
        if (!isChunk)
            ++next;
        if (json.empty())
            continue;   // slot dropped after delivery died
        if (_cfg.emit(json)) {
            if (!isChunk) {
                MutexLock lock(_mutex);
                ++_emittedCount;
            }
            continue;
        }
        // Delivery is dead: flip to drain mode and wake everyone —
        // a blocked push() must stop waiting for space and the
        // submitters must stop simulating. The emitter keeps running
        // only to retire remaining slots so finish() terminates.
        _writeFailed.store(true, std::memory_order_release);
        _spaceCv.notify_all();
        _workCv.notify_all();
    }
}

void
ResponseSequencer::finish()
{
    {
        MutexLock lock(_mutex);
        if (_finished)
            return;
        _finished = true;
        _inputDone = true;
    }
    _workCv.notify_all();
    for (std::thread &t : _submitters)
        t.join();
    _emitCv.notify_all();
    _emitter.join();
}

size_t
ResponseSequencer::accepted() const
{
    MutexLock lock(_mutex);
    return _accepted;
}

size_t
ResponseSequencer::emitted() const
{
    MutexLock lock(_mutex);
    return _emittedCount;
}

size_t
ResponseSequencer::shedCount() const
{
    MutexLock lock(_mutex);
    return _shed;
}

} // namespace momsim::svc
