#include "cpu/smt_core.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace momsim::cpu
{

using isa::OpClass;
using isa::QueueKind;
using isa::RegClass;

CoreConfig
CoreConfig::preset(int threads, isa::SimdIsa simd, FetchPolicy policy)
{
    CoreConfig cfg;
    cfg.numThreads = threads;
    cfg.simd = simd;
    cfg.fetchPolicy = policy;

    // Near-saturation sizes from the table1_saturation sweep.
    switch (threads) {
      case 1:
        cfg.windowPerThread = 64;
        cfg.intQueue = 16;
        cfg.memQueue = 16;
        cfg.fpQueue = 12;
        cfg.simdQueue = 12;
        break;
      case 2:
        cfg.windowPerThread = 64;
        cfg.intQueue = 24;
        cfg.memQueue = 24;
        cfg.fpQueue = 16;
        cfg.simdQueue = 16;
        break;
      case 4:
        cfg.windowPerThread = 48;
        cfg.intQueue = 32;
        cfg.memQueue = 32;
        cfg.fpQueue = 24;
        cfg.simdQueue = 24;
        break;
      default:
        cfg.windowPerThread = 40;
        cfg.intQueue = 48;
        cfg.memQueue = 48;
        cfg.fpQueue = 32;
        cfg.simdQueue = 32;
        break;
    }

    cfg.intPhysRegs = 32 * threads + 64;
    cfg.fpPhysRegs = 32 * threads + 32;
    if (simd == isa::SimdIsa::Mmx) {
        cfg.simdPhysRegs = 32 * threads + 32;
        cfg.simdIssue = 2;
    } else {
        // 16 stream registers + 2 accumulators per thread, plus slack.
        cfg.simdPhysRegs = 18 * threads + 12;
        cfg.simdIssue = 1;
    }
    return cfg;
}

SmtCore::SmtCore(const CoreConfig &cfg, mem::MemorySystem &mem)
    : _cfg(cfg), _mem(mem), _threads(cfg.numThreads), _stats("core")
{
    // Checked unconditionally (not via MOMSIM_ASSERT, which Release
    // compiles away): the per-cycle commit/dispatch rounds use
    // 8-slot stack arrays sized to this bound, so an oversized config
    // must fail loudly here rather than corrupt the stack later.
    if (cfg.numThreads < 1 || cfg.numThreads > 8)
        panic(strfmt("numThreads=%d outside the supported 1..8 hardware "
                     "contexts", cfg.numThreads));

    // Structure-of-arrays ROB state: one arena carries the hot columns,
    // wakeup lists and cold payload for every (thread, window slot),
    // the per-thread rename tables and the fetch-ring buffers. Storage
    // per thread is rounded up to a power of two so position lookup is
    // a mask; the logical capacity stays exactly windowPerThread
    // (dispatch checks tail - head against the configured window).
    uint64_t robSize = pow2Ceil(static_cast<uint64_t>(cfg.windowPerThread));
    _robMask = robSize - 1;
    _numSlots = static_cast<size_t>(cfg.numThreads) *
                static_cast<size_t>(robSize);
    if (_numSlots > kWaiterSlotMask + 1)
        panic(strfmt("windowPerThread=%d x %d threads exceeds the %llu "
                     "slots a wakeup record can name", cfg.windowPerThread,
                     cfg.numThreads,
                     static_cast<unsigned long long>(kWaiterSlotMask + 1)));
    size_t fqCap = static_cast<size_t>(
        pow2Ceil(static_cast<uint64_t>(cfg.fetchQueueDepth)));

    size_t off = 0;
    auto carve = [&off](size_t bytes) {
        size_t at = off;
        off = (off + bytes + 63) & ~static_cast<size_t>(63);
        return at;
    };
    size_t oPos = carve(_numSlots * sizeof(uint64_t));
    size_t oHot = carve(_numSlots * sizeof(SlotHot));
    size_t oCount = carve(_numSlots * sizeof(uint32_t));
    // Everything carved above is read before it is written and starts
    // zeroed; the rest is written first (rename tables when a program
    // attaches, ring entries on push, waiter records on registration,
    // the cold payload at dispatch).
    size_t zeroed = off;
    size_t oRename = carve(static_cast<size_t>(cfg.numThreads) * 256 *
                           sizeof(int64_t));
    size_t oRings = carve(static_cast<size_t>(cfg.numThreads) * fqCap *
                          sizeof(FetchedInst));
    size_t oWait = carve(_numSlots * kInlineWaiters * sizeof(Waiter));
    size_t oCold = carve(_numSlots * sizeof(RobCold));

    // Default-initialised: only the prefix below is zero-filled.
    _arenaStore.reset(new std::byte[off + 64]);
    std::byte *base = _arenaStore.get();
    base += (64 - reinterpret_cast<uintptr_t>(base) % 64) % 64;
    // All-zero bytes are the correct initial value for these columns
    // (pos 0, zero hot record = cycle 0 + gen 0 + State::Empty, no
    // registered waiters).
    std::memset(base, 0, zeroed);
    _colPos = reinterpret_cast<uint64_t *>(base + oPos);
    _hot = reinterpret_cast<SlotHot *>(base + oHot);
    _waitCount = reinterpret_cast<uint32_t *>(base + oCount);
    _waitInline = reinterpret_cast<Waiter *>(base + oWait);
    _cold = reinterpret_cast<RobCold *>(base + oCold);
    int64_t *renameBase = reinterpret_cast<int64_t *>(base + oRename);
    FetchedInst *ringBase = reinterpret_cast<FetchedInst *>(base + oRings);

    // Dispatch gates on each queue's configured capacity, so these
    // never reallocate while a point runs.
    _intQ.reserve(static_cast<size_t>(std::max(cfg.intQueue, 0)));
    _memQ.reserve(static_cast<size_t>(std::max(cfg.memQueue, 0)));
    _fpQ.reserve(static_cast<size_t>(std::max(cfg.fpQueue, 0)));
    _simdQ.reserve(static_cast<size_t>(std::max(cfg.simdQueue, 0)));
    _activeStreams.reserve(static_cast<size_t>(std::max(cfg.memQueue, 0)));

    for (int tid = 0; tid < cfg.numThreads; ++tid) {
        Thread &t = _threads[static_cast<size_t>(tid)];
        t.slotBase = static_cast<uint32_t>(
            static_cast<uint64_t>(tid) * robSize);
        t.rename = renameBase + static_cast<size_t>(tid) * 256;
        t.fetchQ.init(ringBase + static_cast<size_t>(tid) * fqCap, fqCap);
    }

    int logicalSimd =
        cfg.simd == isa::SimdIsa::Mmx ? isa::kNumLogicalMmx
                                      : isa::kNumLogicalMomStream +
                                        isa::kNumLogicalMomAcc;
    _freeRegs[0] = cfg.intPhysRegs - 32 * cfg.numThreads;
    _freeRegs[1] = cfg.fpPhysRegs - 32 * cfg.numThreads;
    _freeRegs[2] = cfg.simdPhysRegs - logicalSimd * cfg.numThreads;
    // MMX code also names MMX registers under the MOM machine (both
    // extensions share the SIMD file organization).
    if (cfg.simd == isa::SimdIsa::Mom)
        _freeRegs[2] = std::max(_freeRegs[2], 12);
    for (int p = 0; p < 3; ++p) {
        if (_freeRegs[p] < 8)
            panic("physical register file too small for rename slack");
    }

    _fetchOrderBuf.reserve(static_cast<size_t>(cfg.numThreads));

    // Resolve the hot counters once: the per-event cost becomes an
    // indexed increment instead of a string-keyed lookup (StatIds stay
    // valid across later registrations).
    _ctrCommits = _stats.id("commits");
    _ctrCommitInt = _stats.id("commitInt");
    _ctrCommitFp = _stats.id("commitFp");
    _ctrCommitSimd = _stats.id("commitSimd");
    _ctrCommitMem = _stats.id("commitMem");
    _ctrIssued = _stats.id("issued");
    _ctrDispatched = _stats.id("dispatched");
    _ctrFetched = _stats.id("fetched");
    _ctrCondBranches = _stats.id("condBranches");
    _ctrRobFullStalls = _stats.id("robFullStalls");
    _ctrIqFullStalls = _stats.id("iqFullStalls");
    _ctrRegFullStalls = _stats.id("regFullStalls");
    _ctrIdleCyclesSkipped = _stats.id("idleCyclesSkipped");
    _ctrCommitStoreStalls = _stats.id("commitStoreStalls");
    _ctrMispredicts = _stats.id("mispredicts");
    _ctrFlushes = _stats.id("flushes");
    _ctrSquashed = _stats.id("squashed");
    _ctrIfetchRejected = _stats.id("ifetchRejected");
    _ctrIcacheMissStalls = _stats.id("icacheMissStalls");
}

void
SmtCore::attachProgram(int tid, const trace::Program *prog)
{
    MOMSIM_ASSERT(threadIdle(tid), "attach to a busy context");
    Thread &t = _threads[static_cast<size_t>(tid)];
    t.prog = prog;
    t.cursor = 0;
    t.head = t.tail = 0;
    t.fetchReady = _now;
    t.fetchQ.clear();
    std::fill(t.rename, t.rename + 256, -1);
    t.committedEq = 0;
    t.iqCount = 0;
    t.oqCount = 0;
}

bool
SmtCore::threadIdle(int tid) const
{
    const Thread &t = _threads[static_cast<size_t>(tid)];
    return t.prog == nullptr ||
           (t.cursor >= t.prog->size() && t.head == t.tail &&
            t.fetchQ.empty());
}

uint64_t
SmtCore::threadCommittedEq(int tid) const
{
    return _threads[static_cast<size_t>(tid)].committedEq;
}

int
SmtCore::physPoolOf(isa::RegRef reg) const
{
    switch (isa::regClass(reg)) {
      case RegClass::Int: return 0;
      case RegClass::Fp:  return 1;
      case RegClass::Mmx:
      case RegClass::Mom: return 2;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Readiness tracking
// ---------------------------------------------------------------------

int
SmtCore::trackProducers(Thread &t, size_t slot, uint64_t gen)
{
    int pending = 0;
    uint64_t ready = 0;
    for (int64_t p : _cold[slot].prod) {
        if (p < 0)
            continue;
        uint64_t pp = static_cast<uint64_t>(p);
        if (pp < t.head)
            continue;       // producer already graduated
        size_t sp = slotOf(t, pp);
        if (_colPos[sp] != pp)
            continue;       // producer slot was recycled (graduated)
        const SlotHot h = _hot[sp];
        if (metaState(h.meta) == State::Done) {
            ready = std::max(ready, h.when);
        } else {
            addWaiter(sp, (gen << kWaiterGenShift) | slot);
            pending += 1;
        }
    }
    _hot[slot].when = ready;
    return pending;
}

void
SmtCore::wakeOne(Waiter w, uint64_t done)
{
    size_t sc = static_cast<size_t>(w & kWaiterSlotMask);
    uint64_t m = _hot[sc].meta;
    // Generations are unique per allocation, so a tag match proves
    // the registration still names this slot's current instruction;
    // it must then also still be waiting (only a Dispatched slot can
    // carry a pending count — nops carry no sources).
    if (metaGen(m) != (w >> kWaiterGenShift) ||
        metaState(m) != State::Dispatched)
        return;         // consumer was squashed since registering
    _hot[sc].when = std::max(_hot[sc].when, done);
    m -= kMetaPendOne;
    _hot[sc].meta = m;
    if (metaPending(m) == 0)
        relaxQueueBound(sc);
}

void
SmtCore::wakeDependents(size_t slot)
{
    uint32_t n = _waitCount[slot];
    if (n == 0)
        return;
    _waitCount[slot] = 0;
    uint64_t done = _hot[slot].when;
    const Waiter *inl = _waitInline + slot * kInlineWaiters;
    for (uint32_t i = 0, k = std::min(n, kInlineWaiters); i < k; ++i)
        wakeOne(inl[i], done);
    if (n > kInlineWaiters)
        dropSpilled(slot, &done);
}

void
SmtCore::spillWaiter(size_t slot, Waiter w)
{
    _waitSpill.push_back({ static_cast<uint32_t>(slot), w });
}

void
SmtCore::dropSpilled(size_t slot, const uint64_t *done)
{
    size_t keep = 0;
    for (const SpilledWaiter &sw : _waitSpill) {
        if (sw.producer != slot)
            _waitSpill[keep++] = sw;
        else if (done)
            wakeOne(sw.waiter, *done);
    }
    _waitSpill.resize(keep);
}

void
SmtCore::debugDump() const
{
    std::string out;
    out += strfmt("cycle %llu  momFuBusy=%lld  IQ sizes "
                  "int=%zu mem=%zu fp=%zu simd=%zu streams=%zu  "
                  "freeRegs=%d/%d/%d\n",
                  static_cast<unsigned long long>(_now),
                  static_cast<long long>(_momFuBusyUntil) -
                      static_cast<long long>(_now),
                  _intQ.size(), _memQ.size(), _fpQ.size(), _simdQ.size(),
                  _activeStreams.size(),
                  _freeRegs[0], _freeRegs[1], _freeRegs[2]);
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        out += strfmt("  t%d cursor=%zu/%zu inflight=%llu fq=%zu "
                      "fetchReady=%+lld iq=%d",
                      tid, t.cursor, t.prog ? t.prog->size() : 0,
                      static_cast<unsigned long long>(t.tail - t.head),
                      t.fetchQ.size(),
                      static_cast<long long>(t.fetchReady) -
                          static_cast<long long>(_now),
                      t.iqCount);
        if (t.head != t.tail) {
            size_t s = slotOf(t, t.head);
            out += strfmt("  head: %s state=%d done=%+lld",
                          isa::opName(_cold[s].inst->opcode()),
                          static_cast<int>(metaState(_hot[s].meta)),
                          static_cast<long long>(_hot[s].when) -
                              static_cast<long long>(_now));
        }
        out += "\n";
    }
    // One atomic write: dumps from concurrent pool workers must not
    // interleave mid-line.
    dumpRaw(out);
}

std::string
SmtCore::debugLayoutIssue() const
{
    uint64_t robSize = _robMask + 1;
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.slotBase != static_cast<uint64_t>(tid) * robSize)
            return strfmt("t%d slotBase %u != tid*robSize", tid, t.slotBase);
        if (t.tail - t.head > static_cast<uint64_t>(_cfg.windowPerThread))
            return strfmt("t%d inflight %llu exceeds window", tid,
                          static_cast<unsigned long long>(t.tail - t.head));
        for (uint64_t pos = t.head; pos < t.tail; ++pos) {
            size_t s = slotOf(t, pos);
            if (_colPos[s] != pos && _colPos[s] != ~0ull)
                return strfmt("t%d pos %llu: slot holds foreign pos", tid,
                              static_cast<unsigned long long>(pos));
            if (_colPos[s] != pos)
                continue;   // squashed slot awaiting reallocation
            if (metaState(_hot[s].meta) == State::Empty)
                return strfmt("t%d pos %llu: live slot is Empty", tid,
                              static_cast<unsigned long long>(pos));
            if (_cold[s].inst == nullptr)
                return strfmt("t%d pos %llu: live slot has no inst", tid,
                              static_cast<unsigned long long>(pos));
            uint64_t g = metaGen(_hot[s].meta);
            if (g == 0 || g > (t.genTick & kMetaGenMask))
                return strfmt("t%d pos %llu: gen %llu outside (0, %llu]",
                              tid, static_cast<unsigned long long>(pos),
                              static_cast<unsigned long long>(g),
                              static_cast<unsigned long long>(t.genTick));
        }
    }

    // Queue references must resolve to their slot; live per-thread
    // occupancy must match the iq/oq fetch-policy counters.
    int64_t iqLive[8] = {};
    int64_t oqLive[8] = {};
    for (const std::vector<IqEntry> *q :
         { &_intQ, &_memQ, &_fpQ, &_simdQ, &_activeStreams }) {
        for (const IqEntry &ref : *q) {
            if (ref.tid < 0 || ref.tid >= _cfg.numThreads)
                return strfmt("queue ref tid %d out of range", ref.tid);
            const Thread &t = _threads[static_cast<size_t>(ref.tid)];
            if (ref.slot != slotOf(t, ref.pos))
                return strfmt("t%d pos %llu: ref slot %u != slotOf",
                              ref.tid,
                              static_cast<unsigned long long>(ref.pos),
                              ref.slot);
            if (metaGen(_hot[ref.slot].meta) == ref.gen &&
                metaState(_hot[ref.slot].meta) == State::Dispatched) {
                iqLive[ref.tid] += 1;
                oqLive[ref.tid] += _cold[ref.slot].inst->eqInsts();
            }
        }
    }
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (iqLive[tid] != t.iqCount)
            return strfmt("t%d iqCount %d != live dispatched %lld", tid,
                          t.iqCount, static_cast<long long>(iqLive[tid]));
        if (oqLive[tid] != t.oqCount)
            return strfmt("t%d oqCount %lld != live eq %lld", tid,
                          static_cast<long long>(t.oqCount),
                          static_cast<long long>(oqLive[tid]));
    }

    // Wakeup registrations name a slot of the producer's own thread and
    // never run ahead of that thread's generation source (a tag from
    // the future could resurrect); each slot's spilled records number
    // exactly its registrations past the inline room.
    std::vector<uint32_t> spilled(_numSlots, 0);
    for (const SpilledWaiter &sw : _waitSpill) {
        if (sw.producer >= _numSlots)
            return strfmt("spilled waiter names slot %u", sw.producer);
        spilled[sw.producer] += 1;
    }
    auto checkWaiter = [this, robSize](size_t s, Waiter w) {
        int tid = static_cast<int>(s / robSize);
        const Thread &t = _threads[static_cast<size_t>(tid)];
        uint64_t gen = w >> kWaiterGenShift;
        size_t sc = static_cast<size_t>(w & kWaiterSlotMask);
        if (sc / robSize != s / robSize)
            return strfmt("t%d slot %zu: waiter slot %zu in another "
                          "thread", tid, s, sc);
        if (gen == 0 || gen > (t.genTick & kMetaGenMask))
            return strfmt("t%d slot %zu: waiter gen %llu outside "
                          "(0, %llu]", tid, s,
                          static_cast<unsigned long long>(gen),
                          static_cast<unsigned long long>(t.genTick));
        return std::string();
    };
    for (size_t s = 0; s < _numSlots; ++s) {
        uint32_t n = _waitCount[s];
        uint32_t extra = n > kInlineWaiters ? n - kInlineWaiters : 0;
        if (spilled[s] != extra)
            return strfmt("slot %zu: %u spilled waiters, count says %u", s,
                          spilled[s], extra);
        for (uint32_t i = 0; i < n && i < kInlineWaiters; ++i) {
            std::string issue =
                checkWaiter(s, _waitInline[s * kInlineWaiters + i]);
            if (!issue.empty())
                return issue;
        }
    }
    for (const SpilledWaiter &sw : _waitSpill) {
        std::string issue = checkWaiter(sw.producer, sw.waiter);
        if (!issue.empty())
            return issue;
    }
    return std::string();
}

// ---------------------------------------------------------------------
// Stepping and idle fast-forward
// ---------------------------------------------------------------------

uint64_t
SmtCore::nextEventCycle() const
{
    // In-flight stream expansions issue elements every cycle.
    if (!_activeStreams.empty())
        return _now;

    uint64_t next = ~0ull;

    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        // Commit: a Done head graduates (or retries its store) the
        // cycle its result is ready. A non-Done head completes through
        // an issue/stream event accounted below.
        if (t.head != t.tail) {
            const SlotHot h = _hot[slotOf(t, t.head)];
            if (metaState(h.meta) == State::Done) {
                if (h.when <= _now)
                    return _now;
                next = std::min(next, h.when);
            }
        }
        // Dispatch: a fetch-queue head that passes the structural
        // gates renames this cycle. A gated head unblocks only through
        // commit/issue events.
        if (!t.fetchQ.empty() &&
            dispatchGate(t, t.fetchQ.front()) == DispatchGate::Ok)
            return _now;
        // Fetch: an eligible thread accesses the I-cache this cycle.
        if (t.prog && t.cursor < t.prog->size() &&
            static_cast<int>(t.fetchQ.size()) + _cfg.fetchGroupSize <=
                _cfg.fetchQueueDepth) {
            if (t.fetchReady <= _now)
                return _now;
            next = std::min(next, t.fetchReady);
        }
    }

    // Issue: a ready entry attempts to issue every cycle, even when the
    // attempt keeps failing on a busy FU or a rejected memory access —
    // so readiness, not executability, is what schedules the machine.
    // One 16-byte hot-record load per entry answers validation
    // (generation + state), the pending count and the ready cycle.
    for (const std::vector<IqEntry> *q :
         { &_intQ, &_memQ, &_fpQ, &_simdQ }) {
        for (const IqEntry &ref : *q) {
            const SlotHot h = _hot[ref.slot];
            if (metaGen(h.meta) != ref.gen ||
                metaState(h.meta) != State::Dispatched)
                return _now;    // stale entry: the issue scan drops it
            if (metaPending(h.meta) > 0)
                continue;       // wakes through a producer completion
            if (h.when <= _now)
                return _now;
            next = std::min(next, h.when);
        }
    }
    return next;
}

void
SmtCore::fastForwardTo(uint64_t target)
{
    uint64_t skipped = target - _now;
    uint64_t n = static_cast<uint64_t>(_cfg.numThreads);

    // The naive path runs every stage on a no-op cycle; the only
    // residue is the per-cycle rotation advance and one dispatch-stall
    // count per gated thread per cycle. Replay both exactly.
    _fetchRotate = static_cast<int>(
        (static_cast<uint64_t>(_fetchRotate) + skipped) % n);
    _dispatchRotate = static_cast<int>(
        (static_cast<uint64_t>(_dispatchRotate) + skipped) % n);
    for (int tid = 0; tid < _cfg.numThreads; ++tid) {
        const Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.fetchQ.empty())
            continue;
        switch (dispatchGate(t, t.fetchQ.front())) {
          case DispatchGate::RobFull:
            _stats.at(_ctrRobFullStalls) += skipped;
            break;
          case DispatchGate::IqFull:
            _stats.at(_ctrIqFullStalls) += skipped;
            break;
          case DispatchGate::RegFull:
            _stats.at(_ctrRegFullStalls) += skipped;
            break;
          case DispatchGate::Ok:
            break;      // unreachable: an Ok gate prevents fast-forward
        }
    }
    _stats.at(_ctrIdleCyclesSkipped) += skipped;
    _now = target;
    // The jump landed on the next event; the machine acts this cycle.
    _probablyIdle = false;
}

void
SmtCore::step(uint64_t horizon)
{
    // Only pay for the idle scan when the previous cycle made no
    // visible progress — a cheap heuristic that keeps the fast-forward
    // machinery entirely off the busy path. Skipping the scan on an
    // idle cycle is harmless (the stages no-op and account their own
    // stalls), so results are identical either way.
    if (_cfg.enableFastForward && _probablyIdle) {
        uint64_t next = nextEventCycle();
        if (next > _now) {
            // Let the memory hierarchy cap the jump at its own next
            // structural event (bank frees, miss completes, write
            // buffer drains), then never skip past the caller's cycle
            // horizon.
            next = std::min(next, _mem.nextEventCycle(_now));
            uint64_t target = std::min(next, horizon);
            if (target <= _now)
                target = _now + 1;
            fastForwardTo(target);
            return;
        }
    }
    uint64_t before =
        _stats.at(_ctrCommits) + _stats.at(_ctrIssued) +
        _stats.at(_ctrDispatched) + _stats.at(_ctrFetched);
    commitStage();
    streamStage();
    issueStage();
    dispatchStage();
    fetchStage();
    ++_now;
    uint64_t after =
        _stats.at(_ctrCommits) + _stats.at(_ctrIssued) +
        _stats.at(_ctrDispatched) + _stats.at(_ctrFetched);
    _probablyIdle = after == before;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
SmtCore::commitStage()
{
    int budget = _cfg.commitWidth;
    int n = _cfg.numThreads;
    int start = static_cast<int>(_now % static_cast<uint64_t>(n));

    // Try to graduate one instruction from @p tid; false when the head
    // is absent, not ready, or its store was rejected — all conditions
    // that cannot clear within this cycle, so the thread drops out of
    // the round-robin for the rest of the stage. The ready check reads
    // only the state/done columns; the cold payload is touched once a
    // graduation is certain.
    auto tryCommitOne = [this](int tid) -> bool {
        Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.head == t.tail)
            return false;
        size_t s = slotOf(t, t.head);
        const SlotHot h = _hot[s];
        if (metaState(h.meta) != State::Done || h.when > _now)
            return false;

        RobCold &cold = _cold[s];
        OpClass cls = cold.inst->opClass();
        bool scalarStore =
            (cls == OpClass::Store || cls == OpClass::MmxStore);
        if (scalarStore && !cold.storeDone) {
            mem::MemAccess req;
            req.addr = cold.inst->addr;
            req.size = cold.inst->accessSize;
            req.isWrite = true;
            req.isVector = (cls == OpClass::MmxStore);
            req.threadId = tid;
            mem::MemReply rep = _mem.access(_now, req);
            if (!rep.accepted) {
                _stats.at(_ctrCommitStoreStalls) += 1;
                return false;   // write buffer full; retry next cycle
            }
            cold.storeDone = true;
        }

        // Graduate.
        if (isa::isValidReg(cold.inst->dst))
            _freeRegs[physPoolOf(cold.inst->dst)] += 1;
        uint32_t eq = cold.inst->eqInsts();
        _committedRecords += 1;
        _committedEq += eq;
        t.committedEq += eq;
        _stats.at(_ctrCommits) += 1;
        switch (isa::mixGroup(cls)) {
          case isa::MixGroup::Int:
            _stats.at(_ctrCommitInt) += eq;
            break;
          case isa::MixGroup::Fp:
            _stats.at(_ctrCommitFp) += eq;
            break;
          case isa::MixGroup::SimdArith:
            _stats.at(_ctrCommitSimd) += eq;
            break;
          case isa::MixGroup::Mem:
            _stats.at(_ctrCommitMem) += eq;
            break;
        }
        setMetaState(s, State::Empty);
        ++t.head;
        return true;
    };

    // Round-robin starting at (_now % n), one commit per thread per
    // round; after the first round only the threads that just committed
    // can commit again, so later rounds visit exactly those.
    int active[8];
    int numActive = 0;
    int tid = start;
    for (int i = 0; i < n && budget > 0;
         ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
        if (tryCommitOne(tid)) {
            --budget;
            active[numActive++] = tid;
        }
    }
    while (budget > 0 && numActive > 0) {
        int stillActive = 0;
        for (int i = 0; i < numActive && budget > 0; ++i) {
            if (tryCommitOne(active[i])) {
                --budget;
                active[stillActive++] = active[i];
            }
        }
        numActive = stillActive;
    }
}

// ---------------------------------------------------------------------
// Stream memory expansion
// ---------------------------------------------------------------------

void
SmtCore::streamStage()
{
    // The stream memory unit sustains at most `vectorLanes` element
    // accesses per cycle in total, shared by all in-flight streams (two
    // address generators feeding the two vector ports).
    int budget = _cfg.vectorLanes;
    for (size_t i = 0; i < _activeStreams.size();) {
        if (budget <= 0)
            break;
        IqEntry ref = _activeStreams[i];
        size_t s = ref.slot;
        if (metaGen(_hot[s].meta) != ref.gen ||
            metaState(_hot[s].meta) != State::Executing) {
            // Squashed or otherwise gone.
            _activeStreams.erase(_activeStreams.begin() +
                                 static_cast<long>(i));
            continue;
        }
        RobCold &cold = _cold[s];
        uint32_t total = cold.inst->memAccesses();
        int issuedThisCycle = 0;
        while (cold.elemsIssued < total && issuedThisCycle < budget) {
            mem::MemAccess req;
            req.addr = cold.inst->elementAddr(cold.elemsIssued);
            req.size = cold.inst->accessSize;
            req.isWrite = cold.inst->isStore();
            req.isVector = true;
            req.nonTemporal = false;
            req.threadId = ref.tid;
            mem::MemReply rep = _mem.access(_now, req);
            if (!rep.accepted)
                break;
            cold.streamReady = std::max(cold.streamReady, rep.readyCycle);
            ++cold.elemsIssued;
            ++issuedThisCycle;
        }
        budget -= issuedThisCycle;
        if (cold.elemsIssued >= total) {
            setMetaState(s, State::Done);
            _hot[s].when = std::max(cold.streamReady, _now + 1);
            wakeDependents(s);
            _activeStreams.erase(_activeStreams.begin() +
                                 static_cast<long>(i));
            continue;
        }
        ++i;
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
SmtCore::tryExecute(int tid, size_t slot, QueueKind kind)
{
    RobCold &cold = _cold[slot];
    const isa::OpInfo &info = isa::opInfo(cold.inst->opcode());
    OpClass cls = info.cls;

    switch (kind) {
      case QueueKind::Int:
        if (cls == OpClass::IntDiv) {
            if (_divBusyUntil > _now)
                return false;
            _divBusyUntil = _now + info.latency;
        }
        setMetaState(slot, State::Done);
        _hot[slot].when = _now + info.latency;
        if (cold.mispredicted) {
            _stats.at(_ctrMispredicts) += 1;
            flushThread(tid, _colPos[slot]);
        }
        return true;

      case QueueKind::Fp:
        if (cls == OpClass::FpDiv) {
            if (_fdivBusyUntil > _now)
                return false;
            _fdivBusyUntil = _now + info.latency;
        }
        setMetaState(slot, State::Done);
        _hot[slot].when = _now + info.latency;
        return true;

      case QueueKind::Simd:
        if (isa::isMom(cls)) {
            if (_momFuBusyUntil > _now)
                return false;
            uint32_t len = std::max<uint32_t>(1, cold.inst->streamLen);
            uint64_t occupancy =
                (len + _cfg.vectorLanes - 1) /
                static_cast<uint32_t>(_cfg.vectorLanes);
            _momFuBusyUntil = _now + occupancy;
            setMetaState(slot, State::Done);
            _hot[slot].when = _now + info.latency + occupancy - 1;
        } else {
            setMetaState(slot, State::Done);
            _hot[slot].when = _now + info.latency;
        }
        return true;

      case QueueKind::Mem: {
        if (cls == OpClass::MomLoad || cls == OpClass::MomStore) {
            // Hand over to the stream engine.
            setMetaState(slot, State::Executing);
            cold.elemsIssued = 0;
            cold.streamReady = 0;
            _activeStreams.push_back({ _colPos[slot],
                                       metaGen(_hot[slot].meta),
                                       static_cast<uint32_t>(slot), tid });
            return true;
        }
        if (cold.inst->isStore()) {
            // Address generation; the access happens at graduation.
            setMetaState(slot, State::Done);
            _hot[slot].when = _now + 1;
            return true;
        }
        mem::MemAccess req;
        req.addr = cold.inst->addr;
        req.size = cold.inst->accessSize;
        req.isWrite = false;
        req.isVector = cold.inst->isMmx();
        req.threadId = tid;
        mem::MemReply rep = _mem.access(_now, req);
        if (!rep.accepted)
            return false;       // retry next cycle
        setMetaState(slot, State::Done);
        _hot[slot].when = rep.readyCycle;
        return true;
      }
    }
    return false;
}

void
SmtCore::issueFromQueue(std::vector<IqEntry> &queue, int width,
                        QueueKind kind)
{
    // Nothing can possibly be ready before the queue's bound: skip the
    // scan outright. A skipped scan has no side effects (no entry
    // issues, no compaction, no counters), so results are unchanged.
    uint64_t &bound = _queueMinReady[static_cast<int>(kind)];
    if (bound > _now)
        return;

    // The scan body reads one 16-byte hot record per entry: generation
    // and state validate the reference, the pending count and the
    // timestamp decide readiness — the common keep-in-place iterations
    // touch one dense array and no per-entry payload.
    uint64_t nextReady = ~0ull;
    int used = 0;
    size_t keep = 0;
    size_t i = 0;
    for (; i < queue.size(); ++i) {
        IqEntry ref = queue[i];
        size_t s = ref.slot;
        // Compaction writes only once the kept range diverges from the
        // scanned range (i.e. after the first issue/drop) — on most
        // cycles most entries just stay put.
        auto keepEntry = [&queue, &keep](size_t at, IqEntry entry) {
            if (keep != at)
                queue[keep] = entry;
            ++keep;
        };
        const SlotHot h = _hot[s];
        if (metaGen(h.meta) != ref.gen ||
            metaState(h.meta) != State::Dispatched)
            continue;           // squashed/stale: drop from the queue
        if (used >= width) {
            keepEntry(i, ref);      // ready now, out of issue slots
            nextReady = std::min(nextReady, h.when);
            continue;
        }
        if (metaPending(h.meta) > 0) {
            keepEntry(i, ref);      // its wakeup will relax the bound
            continue;
        }
        if (h.when > _now) {
            keepEntry(i, ref);      // operands not ready yet
            nextReady = std::min(nextReady, h.when);
            continue;
        }
        ++used;                 // an issue slot is consumed by the attempt
        if (tryExecute(ref.tid, s, kind)) {
            Thread &t = _threads[static_cast<size_t>(ref.tid)];
            if (metaState(_hot[s].meta) == State::Done)
                wakeDependents(s);
            t.iqCount -= 1;
            t.oqCount -= _cold[s].inst->eqInsts();
            _stats.at(_ctrIssued) += 1;
        } else {
            keepEntry(i, ref);      // FU busy / access rejected: retry
            nextReady = std::min(nextReady, h.when);
        }
    }
    queue.resize(keep);
    // Exact as of this scan; later dispatches/wakeups only lower it.
    bound = nextReady;
}

void
SmtCore::issueStage()
{
    issueFromQueue(_memQ, _cfg.memIssue, QueueKind::Mem);
    issueFromQueue(_intQ, _cfg.intIssue, QueueKind::Int);
    issueFromQueue(_fpQ, _cfg.fpIssue, QueueKind::Fp);
    issueFromQueue(_simdQ, _cfg.simdIssue, QueueKind::Simd);
}

// ---------------------------------------------------------------------
// Dispatch (decode + rename)
// ---------------------------------------------------------------------

SmtCore::DispatchGate
SmtCore::dispatchGate(const Thread &t, const FetchedInst &f,
                      QueueKind *kindOut) const
{
    if (t.tail - t.head >= static_cast<uint64_t>(_cfg.windowPerThread))
        return DispatchGate::RobFull;
    QueueKind kind = isa::queueKind(f.inst->opClass());
    if (kindOut)
        *kindOut = kind;
    const std::vector<IqEntry> *queue = nullptr;
    int cap = 0;
    switch (kind) {
      case QueueKind::Int:
        queue = &_intQ;
        cap = _cfg.intQueue;
        break;
      case QueueKind::Mem:
        queue = &_memQ;
        cap = _cfg.memQueue;
        break;
      case QueueKind::Fp:
        queue = &_fpQ;
        cap = _cfg.fpQueue;
        break;
      case QueueKind::Simd:
        queue = &_simdQ;
        cap = _cfg.simdQueue;
        break;
    }
    bool isNop = f.inst->opClass() == OpClass::Nop;
    if (!isNop && static_cast<int>(queue->size()) >= cap)
        return DispatchGate::IqFull;
    if (isa::isValidReg(f.inst->dst) &&
        _freeRegs[physPoolOf(f.inst->dst)] <= 0)
        return DispatchGate::RegFull;
    return DispatchGate::Ok;
}

void
SmtCore::dispatchStage()
{
    int budget = _cfg.decodeWidth;
    int n = _cfg.numThreads;
    int start = _dispatchRotate % n;

    // Decode/rename one instruction from @p tid; false when its fetch
    // queue is empty or a structural gate blocks it (the gates only
    // tighten within a cycle, so a refused thread drops out of the
    // round-robin for the rest of the stage).
    auto tryDispatchOne = [this](int tid) -> bool {
        Thread &t = _threads[static_cast<size_t>(tid)];
        if (t.fetchQ.empty())
            return false;

        // Structural checks.
        const FetchedInst &f = t.fetchQ.front();
        QueueKind kind = QueueKind::Int;
        switch (dispatchGate(t, f, &kind)) {
          case DispatchGate::RobFull:
            _stats.at(_ctrRobFullStalls) += 1;
            return false;
          case DispatchGate::IqFull:
            _stats.at(_ctrIqFullStalls) += 1;
            return false;
          case DispatchGate::RegFull:
            _stats.at(_ctrRegFullStalls) += 1;
            return false;
          case DispatchGate::Ok:
            break;
        }
        std::vector<IqEntry> *queue = nullptr;
        switch (kind) {
          case QueueKind::Int:  queue = &_intQ;  break;
          case QueueKind::Mem:  queue = &_memQ;  break;
          case QueueKind::Fp:   queue = &_fpQ;   break;
          case QueueKind::Simd: queue = &_simdQ; break;
        }
        bool isNop = f.inst->opClass() == OpClass::Nop;

        // Allocate and rename: reset the recycled slot's columns, cold
        // payload and wakeup list. The metadata word — generation,
        // pending count, queue kind, state — is assembled in registers
        // and written once.
        uint64_t pos = t.tail++;
        size_t s = slotOf(t, pos);
        RobCold &cold = _cold[s];
        cold.inst = f.inst;
        _colPos[s] = pos;
        cold.prevWriter = -1;
        cold.mispredicted = f.mispredicted;
        cold.storeDone = false;
        cold.elemsIssued = 0;
        cold.streamReady = 0;
        uint64_t gen = ++t.genTick & kMetaGenMask;
        clearWaiters(s);

        isa::RegRef srcs[3] = { f.inst->src0, f.inst->src1, f.inst->src2 };
        for (int sidx = 0; sidx < 3; ++sidx) {
            cold.prod[sidx] = isa::isValidReg(srcs[sidx])
                ? t.rename[srcs[sidx]] : -1;
        }
        int pending = trackProducers(t, s, gen);
        if (isa::isValidReg(f.inst->dst)) {
            cold.prevWriter = t.rename[f.inst->dst];
            t.rename[f.inst->dst] = static_cast<int64_t>(pos);
            _freeRegs[physPoolOf(f.inst->dst)] -= 1;
        }

        if (isNop) {
            _hot[s].meta = metaPack(gen, pending, kind, State::Done);
            _hot[s].when = _now;
        } else {
            _hot[s].meta = metaPack(gen, pending, kind, State::Dispatched);
            queue->push_back({ pos, gen, static_cast<uint32_t>(s), tid });
            t.iqCount += 1;
            t.oqCount += cold.inst->eqInsts();
            if (pending == 0)
                relaxQueueBound(s);
        }

        t.fetchQ.pop_front();
        _stats.at(_ctrDispatched) += 1;
        return true;
    };

    // Round-robin from _dispatchRotate, one instruction per thread per
    // round; only threads that just dispatched stay in later rounds
    // (a stall counter fires at the moment a thread drops out gated,
    // exactly like the naive every-pass walk did).
    int active[8];
    int numActive = 0;
    int tid = start;
    for (int i = 0; i < n && budget > 0;
         ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
        if (tryDispatchOne(tid)) {
            --budget;
            active[numActive++] = tid;
        }
    }
    while (budget > 0 && numActive > 0) {
        int stillActive = 0;
        for (int i = 0; i < numActive && budget > 0; ++i) {
            if (tryDispatchOne(active[i])) {
                --budget;
                active[stillActive++] = active[i];
            }
        }
        numActive = stillActive;
    }
    _dispatchRotate = (_dispatchRotate + 1 == n ? 0 : _dispatchRotate + 1);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
SmtCore::vectorPipeEmpty() const
{
    return _simdQ.empty() && _momFuBusyUntil <= _now;
}

const std::vector<int> &
SmtCore::fetchOrder()
{
    std::vector<int> &order = _fetchOrderBuf;
    order.clear();
    int n = _cfg.numThreads;
    int tid = _fetchRotate % n;
    for (int i = 0; i < n; ++i, tid = (tid + 1 == n ? 0 : tid + 1))
        order.push_back(tid);

    // Stable insertion sort over a precomputed key array: at most 8
    // threads, runs every cycle, never touches an allocator, and loads
    // each thread's counter once instead of per comparison.
    int64_t keys[8];
    auto sortByKeys = [&order, &keys]() {
        for (size_t i = 1; i < order.size(); ++i) {
            int v = order[i];
            int64_t k = keys[v];
            size_t j = i;
            while (j > 0 && k < keys[order[j - 1]]) {
                order[j] = order[j - 1];
                --j;
            }
            order[j] = v;
        }
    };
    switch (_cfg.fetchPolicy) {
      case FetchPolicy::RoundRobin:
        break;
      case FetchPolicy::ICount:
        for (int t = 0; t < n; ++t)
            keys[t] = _threads[static_cast<size_t>(t)].iqCount;
        sortByKeys();
        break;
      case FetchPolicy::OCount:
        for (int t = 0; t < n; ++t)
            keys[t] = _threads[static_cast<size_t>(t)].oqCount;
        sortByKeys();
        break;
      case FetchPolicy::Balance: {
        // Promote one thread of the class the vector pipeline needs to
        // the front; the rest keep the round-robin rotation (the paper
        // breaks same-priority ties round-robin — a full class sort
        // would let two permanently-scalar threads monopolize both
        // fetch groups and starve the machine).
        bool wantVector = vectorPipeEmpty();
        for (size_t i = 0; i < order.size(); ++i) {
            if (_threads[static_cast<size_t>(order[i])].lastFetchVector ==
                wantVector) {
                int chosen = order[i];
                order.erase(order.begin() + static_cast<long>(i));
                order.insert(order.begin(), chosen);
                break;
            }
        }
        break;
      }
    }
    _fetchRotate = (_fetchRotate + 1 == n ? 0 : _fetchRotate + 1);
    return order;
}

void
SmtCore::fetchStage()
{
    const std::vector<int> &order = fetchOrder();
    size_t orderIdx = 0;

    for (int g = 0; g < _cfg.fetchGroups; ++g) {
        // Find the next eligible thread (the same thread may supply both
        // groups when it is the only one ready).
        int tid = -1;
        for (size_t scanned = 0; scanned < order.size(); ++scanned) {
            int cand = order[(orderIdx + scanned) % order.size()];
            Thread &t = _threads[static_cast<size_t>(cand)];
            if (!t.prog || t.cursor >= t.prog->size())
                continue;
            if (t.fetchReady > _now)
                continue;
            if (static_cast<int>(t.fetchQ.size()) + _cfg.fetchGroupSize >
                _cfg.fetchQueueDepth)
                continue;
            tid = cand;
            orderIdx = (orderIdx + scanned + 1) % order.size();
            break;
        }
        if (tid < 0)
            return;

        Thread &t = _threads[static_cast<size_t>(tid)];
        const auto &insts = t.prog->insts();
        uint64_t groupPc = insts[t.cursor].pc;
        mem::FetchReply rep = _mem.ifetch(_now, groupPc);
        if (!rep.accepted) {
            _stats.at(_ctrIfetchRejected) += 1;
            continue;       // I-cache port/bank conflict this cycle
        }
        if (!rep.hit) {
            t.fetchReady = rep.readyCycle;
            _stats.at(_ctrIcacheMissStalls) += 1;
            continue;
        }

        bool fetchedVector = false;
        for (int k = 0; k < _cfg.fetchGroupSize &&
                        t.cursor < t.prog->size(); ++k) {
            FetchedInst f;
            f.inst = &insts[t.cursor];
            ++t.cursor;

            if (f.inst->isCondBranch()) {
                bool pred = _bpred.predict(tid, f.inst->pc);
                bool actual = f.inst->taken();
                f.mispredicted = (pred != actual);
                _bpred.update(tid, f.inst->pc, actual);
                _stats.at(_ctrCondBranches) += 1;
            }
            if (isa::isSimd(f.inst->opClass()))
                fetchedVector = true;

            t.fetchQ.push_back(f);
            _stats.at(_ctrFetched) += 1;

            // A group ends at taken control flow.
            if (f.inst->isControl() && f.inst->taken())
                break;
        }
        t.lastFetchVector = fetchedVector;
    }
}

// ---------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------

void
SmtCore::flushThread(int tid, uint64_t branchPos)
{
    Thread &t = _threads[static_cast<size_t>(tid)];

    // Roll back rename state and free registers, youngest first.
    // Squashed slots keep their generation tag until reallocated, so
    // wakeup records pointing at them stay inert (the pos column is
    // set to the squash sentinel here; a recycled slot gets a fresh
    // gen).
    while (t.tail > branchPos + 1) {
        uint64_t pos = --t.tail;
        size_t s = slotOf(t, pos);
        if (_colPos[s] != pos)
            continue;
        const RobCold &cold = _cold[s];
        if (isa::isValidReg(cold.inst->dst)) {
            t.rename[cold.inst->dst] = cold.prevWriter;
            _freeRegs[physPoolOf(cold.inst->dst)] += 1;
        }
        if (metaState(_hot[s].meta) == State::Dispatched) {
            t.iqCount -= 1;
            t.oqCount -= cold.inst->eqInsts();
        }
        setMetaState(s, State::Empty);
        _colPos[s] = ~0ull;
        _stats.at(_ctrSquashed) += 1;
    }

    auto scrub = [tid, branchPos](std::vector<IqEntry> &q) {
        q.erase(std::remove_if(q.begin(), q.end(),
                               [tid, branchPos](const IqEntry &ref) {
                    return ref.tid == tid && ref.pos > branchPos;
                }), q.end());
    };
    scrub(_intQ);
    scrub(_memQ);
    scrub(_fpQ);
    scrub(_simdQ);
    scrub(_activeStreams);

    // Redirect the front end. Dispatch follows fetch order exactly, so a
    // thread's ROB position equals its trace index; the correct-path
    // continuation starts right after the branch.
    t.fetchQ.clear();
    t.cursor = static_cast<size_t>(branchPos + 1);

    t.fetchReady = std::max(t.fetchReady,
                            _hot[slotOf(t, branchPos)].when +
                            static_cast<uint64_t>(_cfg.mispredictPenalty));
    _stats.at(_ctrFlushes) += 1;
}

} // namespace momsim::cpu
