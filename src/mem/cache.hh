/**
 * @file
 * Generic set-associative cache timing model with banked access, MSHRs
 * and (optionally) a coalescing write buffer — the building block for the
 * paper's L1 data cache, instruction cache and unified L2.
 *
 * This is a timestamp-resource model: structures do not queue requests,
 * they either accept an access (returning its completion cycle) or reject
 * it (structural hazard — bank busy, MSHRs full, write buffer full), in
 * which case the core retries on a later cycle, exactly as a stalled
 * load/store unit would.
 *
 * Hot-path layout: bank/set selection is shift-and-mask (power-of-two
 * bank counts are masked, anything else falls back to modulo); the
 * write-buffer pool is managed through live/free index lists so its
 * scans touch only occupied entries; and the MSHR probe that runs on
 * every lookup short-circuits on a valid-entry count — zero (no miss
 * outstanding) on the overwhelmingly common hit path. The MSHR pool
 * itself keeps the original lazy one-at-a-time retirement walk: which
 * completed MSHRs are still visible at a given call is observable
 * behavior (see freeMshr). nextEventCycle() exposes the earliest cycle
 * any of these structures changes state, so the core's idle
 * fast-forward can skip quiescent stretches without overshooting a
 * memory event.
 *
 * Construction cost does not scale with capacity: the line array is
 * allocated uninitialised, and a set's ways are initialised (invalid)
 * the first time a lookup or an allocation reaches that set, tracked
 * by one bit per set. A short run that touches a few hundred lines of
 * the paper's 1 MB L2 never writes the other 8,000.
 */

#ifndef MOMSIM_MEM_CACHE_HH
#define MOMSIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace momsim::mem
{

struct CacheConfig
{
    std::string name = "cache";
    uint32_t sizeBytes = 32 * 1024;
    uint32_t lineBytes = 32;
    uint32_t ways = 1;
    uint32_t banks = 8;
    uint32_t bankShift = 3;         ///< bank = (addr >> shift) % banks
    uint32_t hitLatency = 1;
    uint32_t numMshrs = 8;
    uint32_t writeBufferEntries = 8;
    bool writeBack = false;         ///< false => write-through, no allocate
    uint32_t portsPerCycle = 4;     ///< accesses accepted per cycle
    uint32_t bankPumps = 1;         ///< accesses per bank per cycle
                                    ///  (2 models a double-pumped array)
    uint32_t fillBytesPerCycle = 16; ///< bank occupancy for line transfers
};

/** Outcome of a cache access attempt. */
struct CacheResult
{
    bool accepted = false;      ///< false => structural hazard, retry
    bool hit = false;
    bool dirtyEviction = false; ///< write-back caches only
    uint64_t victimAddr = 0;    ///< line address of the dirty victim
    uint64_t readyCycle = 0;
    uint64_t missAddr = 0;      ///< line address to fetch from next level
    bool needsFill = false;     ///< true => caller must schedule the fill
};

/**
 * Tag array + timing resources. The cache does not itself talk to the
 * next level: on a miss it reports needsFill and the hierarchy glue
 * schedules the lower-level access and calls fillDone() with the
 * completion time. This keeps L1/L2/DRAM composition explicit.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Try to perform an access.
     * @param cycle   current cycle
     * @param addr    byte address
     * @param isWrite store or write-back traffic
     * @return see CacheResult; if needsFill, the caller must complete the
     *         miss with fillDone(missAddr, readyCycle).
     */
    CacheResult access(uint64_t cycle, uint64_t addr, bool isWrite);

    /**
     * Internal-traffic variant (fills and drains from an upper level):
     * never rejects; instead waits for the bank / an MSHR, modelling the
     * queue in front of the array. @p bytes sets the bank occupancy of
     * the transfer.
     */
    CacheResult accessBlocking(uint64_t cycle, uint64_t addr, bool isWrite,
                               uint32_t bytes);

    /** Complete an outstanding miss: install the line, free the MSHR. */
    void fillDone(uint64_t lineAddr, uint64_t readyCycle);

    /** True if the line is present (used by coherence glue). */
    bool probe(uint64_t addr) const;

    /** Invalidate a line if present; returns true if it was. */
    bool invalidate(uint64_t addr);

    /**
     * Write-buffer admission for write-through caches. Coalesces on line
     * address. Returns false when the buffer is full (caller stalls).
     * @param drainDone completion time of the drain to the next level,
     *        supplied by the hierarchy glue via a callback-free contract:
     *        callers first ask wbProbe() and then commit with wbInsert().
     * Cycles must be non-decreasing across calls (drained entries are
     * lazily recycled against the most recent cycle seen).
     */
    bool wbProbe(uint64_t cycle, uint64_t addr) const;
    void wbInsert(uint64_t cycle, uint64_t addr, uint64_t drainDone,
                  bool *coalesced = nullptr);
    /** True if a pending write-buffer entry covers this line. */
    bool wbHit(uint64_t cycle, uint64_t addr) const;

    /**
     * Earliest cycle > @p cycle at which this cache's structural state
     * changes on its own (a bank frees, an outstanding miss completes,
     * a write-buffer entry drains); ~0ull when nothing is pending. Core
     * fast-forward never jumps past this.
     */
    uint64_t nextEventCycle(uint64_t cycle) const;

    StatGroup &stats() { return _stats; }
    const CacheConfig &config() const { return _cfg; }

    double hitRate() const { return _stats.ratio("hits", "accesses"); }

    double
    avgLatency() const
    {
        return _stats.ratio("latencySum", "accesses");
    }

  private:
    /** Trivial on purpose: the array is allocated uninitialised and
     *  setOf() initialises a set on first touch. */
    struct Line
    {
        uint64_t tag;
        bool valid;
        bool dirty;
        uint64_t lastUse;
    };

    struct Mshr
    {
        uint64_t lineAddr = 0;
        uint64_t readyCycle = 0;
        bool valid = false;
        bool filled = false;
    };

    struct WbEntry
    {
        uint64_t lineAddr = 0;
        uint64_t freeCycle = 0;     ///< when the entry drains
        bool valid = false;
    };

    struct Bank
    {
        uint64_t busyUntil = 0;
        uint64_t curCycle = ~0ull;
        uint32_t used = 0;
    };

    uint64_t lineAddr(uint64_t addr) const { return addr & ~_lineMask; }

    uint32_t
    setIndex(uint64_t addr) const
    {
        return static_cast<uint32_t>((addr >> _lineShift) & (_numSets - 1));
    }

    /** Bank selection: mask when the bank count is a power of two. */
    uint32_t
    bankIndexOf(uint64_t addr) const
    {
        uint64_t sliced = addr >> _cfg.bankShift;
        return static_cast<uint32_t>(_bankMask ? (sliced & _bankMask)
                                               : (sliced % _cfg.banks));
    }

    /** First way of @p addr's set, initialising the set on first touch. */
    Line *
    setOf(uint64_t addr)
    {
        uint32_t idx = setIndex(addr);
        if (!(_setInit[idx >> 6] & (1ull << (idx & 63))))
            initSet(idx);
        return &_lines[static_cast<size_t>(idx) * _cfg.ways];
    }
    /** Mark set @p idx initialised and invalidate its ways. Out of line:
     *  it runs once per set, and inlined it would bloat every lookup. */
    [[gnu::cold]] void initSet(uint32_t idx);

    Line *
    findLine(uint64_t addr)
    {
        uint64_t tag = lineAddr(addr);
        Line *set = setOf(addr);
        for (uint32_t w = 0; w < _cfg.ways; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    findLine(uint64_t addr) const
    {
        return const_cast<Cache *>(this)->findLine(addr);
    }

    Line &
    victimLine(uint64_t addr)
    {
        Line *set = setOf(addr);
        Line *victim = &set[0];
        for (uint32_t w = 0; w < _cfg.ways; ++w) {
            if (!set[w].valid)
                return set[w];
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        return *victim;
    }

    Mshr *findMshr(uint64_t lineAddr);
    const Mshr *findMshr(uint64_t lineAddr) const;
    /**
     * Lazy index-ordered retire-and-take walk. Deliberately retires AT
     * MOST one completed miss per call (the returned slot): completed
     * MSHRs staying visible to findMshr until a walk reaches them is
     * observable behavior (L2 calls arrive at non-monotonic cycles and
     * may still coalesce with them), so an eager retire-all would
     * change simulation results.
     */
    Mshr *freeMshr(uint64_t cycle);

    /** Recycle write-buffer entries whose drain completed. */
    void wbPrune(uint64_t cycle) const;

    bool takePort(uint64_t cycle);
    bool bankAvailable(uint32_t bank, uint64_t cycle) const;
    void useBank(uint32_t bank, uint64_t cycle, uint32_t occupancy);
    CacheResult lookup(uint64_t cycle, uint64_t addr, bool isWrite);

    CacheConfig _cfg;
    uint64_t _lineMask;
    uint32_t _lineShift;
    uint32_t _numSets;
    uint64_t _bankMask;                 ///< banks-1 if pow2, else 0
    std::unique_ptr<Line[]> _lines;     ///< sets x ways, see setOf
    std::vector<uint64_t> _setInit;     ///< 1 bit per initialised set
    std::vector<Mshr> _mshrs;
    std::vector<WbEntry> _wb;
    std::vector<Bank> _banks;
    /**
     * Number of valid MSHRs; the findMshr scan (on every lookup, hits
     * included) short-circuits to "none" when zero — the common case on
     * the hit path.
     */
    uint32_t _mshrValidCount = 0;
    // Write-buffer index freelists: scans touch only occupied entries.
    // Mutable because entries expire by time, so even const probes
    // recycle lazily. Safe (unlike for MSHRs) because every wb call
    // site passes the monotonically advancing core cycle and every
    // predicate rechecks freeCycle explicitly.
    mutable std::vector<uint16_t> _wbLive;
    mutable std::vector<uint16_t> _wbFree;
    /**
     * Exact earliest freeCycle across live write-buffer entries (~0ull
     * when none are draining): wbPrune's walk is skipped outright while
     * the bound is in the future, since a prune that can free nothing
     * is a no-op by construction.
     */
    mutable uint64_t _wbNextFree = ~0ull;
    uint64_t _portCycle = ~0ull;
    uint32_t _portsUsed = 0;
    uint64_t _useTick = 0;
    StatGroup _stats;

    // Hot-path counters, cached once (StatGroup references are stable).
    StatId _ctrAccesses = 0;
    StatId _ctrHits = 0;
    StatId _ctrMisses = 0;
    StatId _ctrLatencySum = 0;
    StatId _ctrStoreAccesses = 0;
    StatId _ctrPortConflicts = 0;
    StatId _ctrBankConflicts = 0;
    StatId _ctrQueueCycles = 0;
    StatId _ctrDelayedHits = 0;
    StatId _ctrMshrCoalesced = 0;
    StatId _ctrWbCoalesced = 0;
    StatId _ctrWbInserts = 0;
    StatId _ctrMshrFull = 0;
    StatId _ctrMshrWait = 0;
};

} // namespace momsim::mem

#endif // MOMSIM_MEM_CACHE_HH
