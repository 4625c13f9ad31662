#include "mem/cache.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace momsim::mem
{

namespace
{

uint32_t
log2u(uint32_t v)
{
    uint32_t n = 0;
    while ((1u << n) < v)
        ++n;
    return n;
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : _cfg(cfg),
      _lineMask(cfg.lineBytes - 1),
      _lineShift(log2u(cfg.lineBytes)),
      _numSets(cfg.sizeBytes / (cfg.lineBytes * cfg.ways)),
      _bankMask(isPow2(cfg.banks) ? cfg.banks - 1 : 0),
      // Default-initialised (no zero fill): setOf() initialises a set
      // the first time it is reached.
      _lines(new Line[static_cast<size_t>(_numSets) * cfg.ways]),
      _setInit((_numSets + 63) / 64, 0),
      _mshrs(cfg.numMshrs),
      _wb(cfg.writeBufferEntries),
      _banks(cfg.banks),
      _stats(cfg.name)
{
    // Construction-time configuration validation is unconditional
    // (MOMSIM_ASSERT compiles away in Release, and a bad geometry here
    // would silently mis-index sets or alias freelist slots forever).
    if (!isPow2(cfg.lineBytes))
        panic("cache '" + cfg.name + "': line size must be a power of two");
    if (!isPow2(_numSets))
        panic("cache '" + cfg.name + "': set count must be a power of two");
    if (cfg.banks < 1)
        panic("cache '" + cfg.name + "': needs at least one bank");
    if (cfg.writeBufferEntries > 0xffff)
        panic("cache '" + cfg.name + "': freelist indices are 16-bit");

    _wbLive.reserve(cfg.writeBufferEntries);
    _wbFree.reserve(cfg.writeBufferEntries);
    for (uint32_t i = cfg.writeBufferEntries; i > 0; --i)
        _wbFree.push_back(static_cast<uint16_t>(i - 1));

    _ctrAccesses = _stats.id("accesses");
    _ctrHits = _stats.id("hits");
    _ctrMisses = _stats.id("misses");
    _ctrLatencySum = _stats.id("latencySum");
    _ctrStoreAccesses = _stats.id("storeAccesses");
    _ctrPortConflicts = _stats.id("portConflicts");
    _ctrBankConflicts = _stats.id("bankConflicts");
    _ctrQueueCycles = _stats.id("queueCycles");
    _ctrDelayedHits = _stats.id("delayedHits");
    _ctrMshrCoalesced = _stats.id("mshrCoalesced");
    _ctrWbCoalesced = _stats.id("wbCoalesced");
    _ctrWbInserts = _stats.id("wbInserts");
    _ctrMshrFull = _stats.id("mshrFull");
    _ctrMshrWait = _stats.id("mshrWait");
}

void
Cache::initSet(uint32_t idx)
{
    _setInit[idx >> 6] |= 1ull << (idx & 63);
    Line *set = &_lines[static_cast<size_t>(idx) * _cfg.ways];
    for (uint32_t w = 0; w < _cfg.ways; ++w)
        set[w] = Line{ 0, false, false, 0 };
}

Cache::Mshr *
Cache::findMshr(uint64_t line)
{
    // The common case on the hit path: nothing outstanding, no scan.
    if (_mshrValidCount == 0)
        return nullptr;
    for (auto &m : _mshrs) {
        if (m.valid && m.lineAddr == line)
            return &m;
    }
    return nullptr;
}

const Cache::Mshr *
Cache::findMshr(uint64_t line) const
{
    return const_cast<Cache *>(this)->findMshr(line);
}

Cache::Mshr *
Cache::freeMshr(uint64_t cycle)
{
    for (auto &m : _mshrs) {
        // Lazily retire completed misses (at most one: the walk stops
        // at the first usable slot — see the header note on why the
        // one-at-a-time pattern is observable and must be preserved).
        if (m.valid && m.filled && m.readyCycle <= cycle) {
            m.valid = false;
            --_mshrValidCount;
        }
        if (!m.valid)
            return &m;
    }
    return nullptr;
}

void
Cache::wbPrune(uint64_t cycle) const
{
    // Nothing can have drained yet: the walk would keep every entry in
    // place, so skipping it entirely is behavior-identical.
    if (cycle < _wbNextFree)
        return;
    // Liveness is membership in _wbLive; the entry's valid flag is left
    // alone so this lazy recycling can run from const probes.
    size_t keep = 0;
    uint64_t nextFree = ~0ull;
    for (uint16_t idx : _wbLive) {
        if (_wb[idx].freeCycle <= cycle) {
            _wbFree.push_back(idx);
        } else {
            nextFree = std::min(nextFree, _wb[idx].freeCycle);
            _wbLive[keep++] = idx;
        }
    }
    _wbLive.resize(keep);
    _wbNextFree = nextFree;
}

bool
Cache::takePort(uint64_t cycle)
{
    if (_portCycle != cycle) {
        _portCycle = cycle;
        _portsUsed = 0;
    }
    if (_portsUsed >= _cfg.portsPerCycle)
        return false;
    ++_portsUsed;
    return true;
}

bool
Cache::bankAvailable(uint32_t bank, uint64_t cycle) const
{
    const Bank &b = _banks[bank];
    if (b.busyUntil > cycle)
        return false;
    if (b.curCycle == cycle && b.used >= _cfg.bankPumps)
        return false;
    return true;
}

void
Cache::useBank(uint32_t bank, uint64_t cycle, uint32_t occupancy)
{
    Bank &b = _banks[bank];
    if (b.curCycle != cycle) {
        b.curCycle = cycle;
        b.used = 0;
    }
    ++b.used;
    if (occupancy > 1)
        b.busyUntil = cycle + occupancy;
}

CacheResult
Cache::lookup(uint64_t cycle, uint64_t addr, bool isWrite)
{
    CacheResult res;
    uint64_t line = lineAddr(addr);
    Line *hit = findLine(addr);

    // Write-through stores complete into the write buffer whether the
    // line is present or not; they are not architectural misses and are
    // kept out of the (load) hit-rate statistics, as the paper's L1
    // numbers are.
    bool wtStore = isWrite && !_cfg.writeBack;

    if (hit) {
        hit->lastUse = ++_useTick;
        if (isWrite && _cfg.writeBack)
            hit->dirty = true;
        res.accepted = true;
        res.hit = true;
        res.readyCycle = cycle + _cfg.hitLatency;
        // The line may have been installed eagerly by an in-flight miss;
        // a "delayed hit" must wait for that fill to land.
        if (Mshr *pending = findMshr(line)) {
            if (pending->readyCycle > res.readyCycle) {
                res.readyCycle = pending->readyCycle;
                _stats.at(_ctrDelayedHits) += 1;
            }
        }
        if (wtStore) {
            _stats.at(_ctrStoreAccesses) += 1;
        } else {
            _stats.at(_ctrAccesses) += 1;
            _stats.at(_ctrHits) += 1;
            _stats.at(_ctrLatencySum) += res.readyCycle - cycle;
        }
        return res;
    }

    // Write-through caches do not allocate on store misses; the store
    // proceeds to the write buffer (handled by the hierarchy glue).
    if (wtStore) {
        res.accepted = true;
        res.hit = false;
        res.readyCycle = cycle + _cfg.hitLatency;
        _stats.at(_ctrStoreAccesses) += 1;
        return res;
    }

    // Coalesce with an outstanding miss to the same line. A completed
    // MSHR whose line has since been evicted must NOT satisfy new
    // accesses (it carries no data any more): retire it and fall
    // through to a fresh allocation.
    if (Mshr *m = findMshr(line)) {
        if (!m->filled || m->readyCycle > cycle) {
            res.accepted = true;
            res.hit = false;
            res.readyCycle = std::max(m->readyCycle,
                                      cycle + _cfg.hitLatency);
            _stats.at(_ctrAccesses) += 1;
            _stats.at(_ctrMisses) += 1;
            _stats.at(_ctrMshrCoalesced) += 1;
            _stats.at(_ctrLatencySum) += res.readyCycle - cycle;
            return res;
        }
        m->valid = false;
        --_mshrValidCount;
    }

    Mshr *m = freeMshr(cycle);
    if (!m) {
        _stats.at(_ctrMshrFull) += 1;
        return res;     // structural stall; retry
    }

    // Allocate eagerly; readyCycle carries the latency.
    Line &victim = victimLine(addr);
    if (victim.valid && victim.dirty) {
        res.dirtyEviction = true;
        res.victimAddr = victim.tag;
    }
    victim.valid = true;
    victim.dirty = isWrite && _cfg.writeBack;
    victim.tag = line;
    victim.lastUse = ++_useTick;

    m->valid = true;
    ++_mshrValidCount;
    m->filled = false;
    m->lineAddr = line;
    m->readyCycle = 0;

    res.accepted = true;
    res.hit = false;
    res.needsFill = true;
    res.missAddr = line;
    res.readyCycle = 0;         // caller sets it after scheduling the fill
    _stats.at(_ctrAccesses) += 1;
    _stats.at(_ctrMisses) += 1;
    return res;
}

CacheResult
Cache::access(uint64_t cycle, uint64_t addr, bool isWrite)
{
    if (!takePort(cycle)) {
        _stats.at(_ctrPortConflicts) += 1;
        return {};
    }

    uint32_t bank = bankIndexOf(addr);
    if (!bankAvailable(bank, cycle)) {
        _stats.at(_ctrBankConflicts) += 1;
        return {};
    }

    CacheResult res = lookup(cycle, addr, isWrite);
    if (res.accepted)
        useBank(bank, cycle, 1);
    return res;
}

CacheResult
Cache::accessBlocking(uint64_t cycle, uint64_t addr, bool isWrite,
                      uint32_t bytes)
{
    uint32_t bank = bankIndexOf(addr);

    uint64_t start = cycle;
    const Bank &b = _banks[bank];
    start = std::max(start, b.busyUntil);
    if (b.curCycle == start && b.used >= _cfg.bankPumps)
        ++start;

    // If every MSHR is pending, wait for the earliest one to retire.
    if (!findLine(addr) && !(isWrite && !_cfg.writeBack) &&
        !findMshr(lineAddr(addr))) {
        if (!freeMshr(start)) {
            uint64_t earliest = ~0ull;
            for (const auto &m : _mshrs) {
                if (m.valid && m.filled)
                    earliest = std::min(earliest, m.readyCycle);
            }
            if (earliest != ~0ull)
                start = std::max(start, earliest);
            _stats.at(_ctrMshrWait) += 1;
        }
    }

    CacheResult res = lookup(start, addr, isWrite);
    MOMSIM_ASSERT(res.accepted, "blocking access could not be admitted");
    uint32_t occ = std::max(1u, bytes / _cfg.fillBytesPerCycle);
    useBank(bank, start, occ);
    // Express the queueing delay in the result.
    if (res.readyCycle != 0 && start > cycle)
        _stats.at(_ctrQueueCycles) += start - cycle;
    return res;
}

void
Cache::fillDone(uint64_t line, uint64_t readyCycle)
{
    Mshr *m = findMshr(line);
    MOMSIM_ASSERT(m != nullptr, "fill for unknown miss");
    m->readyCycle = readyCycle;
    m->filled = true;
}

bool
Cache::probe(uint64_t addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::invalidate(uint64_t addr)
{
    if (Line *l = findLine(addr)) {
        l->valid = false;
        l->dirty = false;
        return true;
    }
    return false;
}

bool
Cache::wbProbe(uint64_t cycle, uint64_t addr) const
{
    wbPrune(cycle);
    if (!_wbFree.empty())
        return true;    // a slot is available
    uint64_t line = lineAddr(addr);
    for (uint16_t idx : _wbLive) {
        if (_wb[idx].lineAddr == line)
            return true;    // coalesces
    }
    return false;
}

void
Cache::wbInsert(uint64_t cycle, uint64_t addr, uint64_t drainDone,
                bool *coalesced)
{
    wbPrune(cycle);
    uint64_t line = lineAddr(addr);
    for (uint16_t idx : _wbLive) {
        WbEntry &e = _wb[idx];
        if (e.lineAddr == line) {
            // Coalesced into a resident entry: no new drain traffic.
            if (coalesced)
                *coalesced = true;
            _stats.at(_ctrWbCoalesced) += 1;
            return;
        }
    }
    if (_wbFree.empty())
        panic("wbInsert without prior wbProbe success");
    uint16_t idx = _wbFree.back();
    _wbFree.pop_back();
    _wbLive.push_back(idx);
    WbEntry &e = _wb[idx];
    e.valid = true;
    e.lineAddr = line;
    e.freeCycle = drainDone;
    _wbNextFree = std::min(_wbNextFree, drainDone);
    if (coalesced)
        *coalesced = false;
    _stats.at(_ctrWbInserts) += 1;
}

bool
Cache::wbHit(uint64_t cycle, uint64_t addr) const
{
    uint64_t line = lineAddr(addr);
    for (uint16_t idx : _wbLive) {
        const WbEntry &e = _wb[idx];
        if (e.freeCycle > cycle && e.lineAddr == line)
            return true;
    }
    return false;
}

uint64_t
Cache::nextEventCycle(uint64_t cycle) const
{
    uint64_t next = ~0ull;
    for (const Bank &b : _banks) {
        if (b.busyUntil > cycle)
            next = std::min(next, b.busyUntil);
    }
    if (_mshrValidCount > 0) {
        for (const auto &m : _mshrs) {
            if (m.valid && m.filled && m.readyCycle > cycle)
                next = std::min(next, m.readyCycle);
        }
    }
    for (uint16_t idx : _wbLive) {
        if (_wb[idx].freeCycle > cycle)
            next = std::min(next, _wb[idx].freeCycle);
    }
    return next;
}

} // namespace momsim::mem
