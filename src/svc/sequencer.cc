#include "svc/sequencer.hh"

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "fabric/protocol.hh"
#include "svc/json.hh"

namespace momsim::svc
{

ResponseSequencer::ResponseSequencer(Config cfg) : _cfg(std::move(cfg))
{
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
    size_t seq;
    bool shed;
    {
        MutexLock lock(_mutex);
        if (!_cfg.shedOnFull) {
            while (_accepted - _retired >= _cfg.maxPending &&
                   !_writeFailed.load(std::memory_order_relaxed))
                _spaceCv.wait(_mutex);
        }
        if (_writeFailed.load(std::memory_order_relaxed))
            return;     // nothing pushed now can ever be delivered
        // Claim the sequence slot now — ordering is fixed by arrival;
        // the emitter simply cannot pass it until fill() lands.
        shed = _accepted - _retired >= _cfg.maxPending;
        seq = _accepted++;
        if (shed)
            ++_shed;
    }
    if (!shed) {
        dispatch(seq, line);
        return;
    }
    // Answer in-slot without starting: the structured kOverloaded
    // error keeps the response stream in input order and tells the
    // client the request was never run.
    SimResponse resp = SimResponse::failure(
        salvageTopLevelId(line), errc::kOverloaded,
        strfmt("request queue full (max %zu pending); request "
               "not executed", _cfg.maxPending));
    resp.client = _cfg.clientTag;
    fill(seq, resp.toJson(_cfg.withTiming));
}

void
ResponseSequencer::dispatch(size_t seq, const std::string &line)
{
    JsonValue doc;
    std::string error;
    SimRequest req;
    if (parseJson(line, doc, error)) {
        const std::string kind = fabric::kindOf(doc);
        if (!kind.empty()) {
            const JsonValue *id = doc.field("id");
            const std::string tag =
                id && id->isString() ? id->text : std::string();
            if (kind == "ping")
                return fill(seq, _cfg.pong(tag));
            return fill(seq, fabric::errorToJson(
                                 tag, "unknown_kind",
                                 strfmt("unknown fabric message kind \"%s\"",
                                        kind.c_str())));
        }
        if (SimRequest::fromJson(doc, req, error)) {
            driver::ExperimentRunner::RowFn onRow;
            if (req.stream) {
                // Rows queue under the slot's seq; the emitter streams
                // them ahead of the final line, which the completion
                // fills only after the last row was delivered.
                onRow = [this, seq](const driver::PlannedPoint &p,
                                    const driver::ResultRow &row) {
                    std::string out;
                    out.reserve(driver::kResultRowBytesHint + p.key.size());
                    driver::appendStoreLine(out, p.key, row,
                                            _cfg.withTiming);
                    MutexLock lock(_mutex);
                    if (_writeFailed.load(std::memory_order_relaxed))
                        return;     // undeliverable; drop quietly
                    _chunks[seq].push_back(std::move(out));
                    _emitCv.notify_one();
                };
            }
            _cfg.start(req, onRow,
                       [this, seq, stream = req.stream,
                        client = req.client.empty() ? _cfg.clientTag
                                                    : req.client](
                           SimResponse resp) {
                           resp.client = client;
                           if (stream)
                               resp.rows.clear();  // every row went out
                           fill(seq, resp.toJson(_cfg.withTiming));
                       });
            return;
        }
    }
    SimResponse resp = SimResponse::failure(salvageTopLevelId(line),
                                            errc::kBadRequest, error);
    resp.client = _cfg.clientTag;
    fill(seq, resp.toJson(_cfg.withTiming));
}

void
ResponseSequencer::fill(size_t seq, std::string json)
{
    // Notify under the lock: once it is released, finish() may return
    // and the sequencer go away under a completing worker.
    MutexLock lock(_mutex);
    _ready.emplace(seq, std::move(json));
    _emitCv.notify_one();
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
                if (_inputDone && next >= _accepted)
                    return;     // all input answered and emitted
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
                json = std::move(it->second);
                _ready.erase(it);
                _chunks.erase(next);
                ++next;
            }
        }
        // Once delivery is dead, slots only retire: started requests
        // still complete, but their lines are dropped.
        bool emitted = false;
        bool failed = false;
        if (!writeFailed()) {
            emitted = _cfg.emit(json);
            failed = !emitted;
        }
        {
            MutexLock lock(_mutex);
            if (failed)
                _writeFailed.store(true, std::memory_order_release);
            if (!isChunk) {
                ++_retired;
                _emittedCount += emitted ? 1 : 0;
            }
        }
        // A blocked push() waits for a retired slot, or for delivery
        // to die.
        if (!isChunk || failed)
            _spaceCv.notify_one();
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
        _emitCv.notify_one();
    }
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
