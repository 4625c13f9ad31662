/**
 * @file
 * The three memory hierarchies the paper evaluates.
 *
 *  - PerfectMemory: every access hits in one cycle (Figure 4's "ideal
 *    memory system — neither cache misses nor bank conflicts").
 *  - ConventionalHierarchy (Figure 7a): 4 general-purpose memory ports
 *    into a banked write-through L1; vector (SIMD) element accesses share
 *    the same ports as scalar accesses.
 *  - DecoupledHierarchy (Figure 7b, from the authors' ICS'99 proposal):
 *    2 scalar ports into a single-banked double-pumped L1 (21264-style)
 *    plus 2 vector ports connected straight to a 2-banked L2 through a
 *    crossbar; an exclusive-bit policy keeps the two access classes
 *    coherent (a vector touch of an L1-resident line invalidates it).
 *
 * All hierarchies share the same I-cache, L2 and Rambus channel models.
 */

#ifndef MOMSIM_MEM_HIERARCHY_HH
#define MOMSIM_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "mem/cache.hh"
#include "mem/dram.hh"

namespace momsim::mem
{

/** Which hierarchy to instantiate. */
enum class MemModel
{
    Perfect,
    Conventional,
    Decoupled,
};

const char *toString(MemModel m);

/** Inverse of toString(); false when @p s names no hierarchy. */
bool fromString(const char *s, MemModel &out);

/** One data-side access request from the core. */
struct MemAccess
{
    uint64_t addr = 0;
    uint8_t size = 4;
    bool isWrite = false;
    bool isVector = false;      ///< issued by a SIMD (MMX/MOM) memory op
    bool nonTemporal = false;
    int threadId = 0;
};

/** Reply to a data-side access attempt. */
struct MemReply
{
    bool accepted = false;      ///< false => structural hazard, retry
    bool l1Hit = false;
    uint64_t readyCycle = 0;
};

/** Reply to an instruction-fetch attempt. */
struct FetchReply
{
    bool accepted = false;
    bool hit = false;
    uint64_t readyCycle = 0;
};

/** Paper §3 "Architectural Parameters" defaults. */
struct MemConfig
{
    CacheConfig l1;
    CacheConfig icache;
    CacheConfig l2;
    DramConfig dram;
    uint32_t vectorPorts = 2;       ///< decoupled hierarchy only
    uint32_t invalidatePenalty = 2; ///< exclusive-bit coherence action

    MemConfig();

    /** Adjust L1/port shape for the decoupled organization. */
    void applyDecoupledShape();
};

/** Interface the SMT core drives. */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** Try one data access; if !accepted the core retries later. */
    virtual MemReply access(uint64_t cycle, const MemAccess &req) = 0;

    /** Try one instruction-group fetch at @p pc. */
    virtual FetchReply ifetch(uint64_t cycle, uint64_t pc) = 0;

    /**
     * Earliest cycle > @p cycle at which the hierarchy's structural
     * state changes on its own (a bank frees, a miss completes, a write
     * buffer drains, DRAM occupancy clears); ~0ull when quiescent. The
     * core's idle fast-forward never jumps past this, so a skipped
     * stretch cannot straddle a memory event.
     */
    virtual uint64_t
    nextEventCycle(uint64_t cycle) const
    {
        (void)cycle;
        return ~0ull;       // stateless hierarchies never wake the core
    }

    // ---- Table 4 metrics ----
    virtual double l1HitRate() const = 0;
    virtual double icacheHitRate() const = 0;
    virtual double l1AvgLatency() const = 0;

    virtual StatGroup *statsOf(const char *which) = 0;
};

std::unique_ptr<MemorySystem> makeMemorySystem(MemModel model,
                                               const MemConfig &cfg = {});

/** Everything hits: the paper's idealistic memory system. */
class PerfectMemory : public MemorySystem
{
  public:
    PerfectMemory() : _stats("perfect")
    {
        _ctrAccesses = _stats.id("accesses");
    }

    MemReply
    access(uint64_t cycle, const MemAccess &req) override
    {
        (void)req;
        _stats.at(_ctrAccesses) += 1;
        return { true, true, cycle + 1 };
    }

    FetchReply
    ifetch(uint64_t cycle, uint64_t pc) override
    {
        (void)pc;
        return { true, true, cycle };
    }

    double l1HitRate() const override { return 1.0; }
    double icacheHitRate() const override { return 1.0; }
    double l1AvgLatency() const override { return 1.0; }
    StatGroup *statsOf(const char *) override { return &_stats; }

  private:
    StatGroup _stats;
    StatId _ctrAccesses = 0;
};

/** Shared plumbing for the two realistic hierarchies. */
class BaseHierarchy : public MemorySystem
{
  public:
    explicit BaseHierarchy(const MemConfig &cfg);

    FetchReply ifetch(uint64_t cycle, uint64_t pc) override;

    uint64_t nextEventCycle(uint64_t cycle) const override;

    double l1HitRate() const override { return _l1.hitRate(); }
    double icacheHitRate() const override { return _ic.hitRate(); }
    double l1AvgLatency() const override { return _l1.avgLatency(); }

    StatGroup *statsOf(const char *which) override;

  protected:
    /** Read a line through the L2 (fills from DRAM on miss). */
    uint64_t l2Read(uint64_t cycle, uint64_t addr, uint32_t bytes);
    /** Write into the L2 (write-allocate; dirty evictions to DRAM). */
    uint64_t l2Write(uint64_t cycle, uint64_t addr, uint32_t bytes);

    /** Store path through the L1 write buffer; false => stall. */
    bool storeThroughWb(uint64_t cycle, uint64_t addr, MemReply &rep);

    MemConfig _cfg;
    Cache _l1;
    Cache _ic;
    Cache _l2;
    RambusChannel _dram;
    // Hierarchy-level counters on the member caches' stat groups,
    // resolved to stable StatIds once at construction: these fire per
    // store, per forwarded load and per fill on the data path.
    StatId _ctrL1WbFull = 0;
    StatId _ctrL1WbForwards = 0;
    StatId _ctrL1LatencySum = 0;
    StatId _ctrL2LatencySum = 0;
    StatId _ctrIcLatencySum = 0;
    StatId _ctrL2VecPortConflicts = 0;
    StatId _ctrL2VecInvalidations = 0;
};

/** Figure 7(a): four general-purpose ports into the banked L1. */
class ConventionalHierarchy : public BaseHierarchy
{
  public:
    explicit ConventionalHierarchy(const MemConfig &cfg)
        : BaseHierarchy(cfg)
    {}

    MemReply access(uint64_t cycle, const MemAccess &req) override;
};

/** Figure 7(b): scalar ports to L1, vector ports straight to L2. */
class DecoupledHierarchy : public BaseHierarchy
{
  public:
    explicit DecoupledHierarchy(const MemConfig &cfg);

    MemReply access(uint64_t cycle, const MemAccess &req) override;

  private:
    MemReply scalarAccess(uint64_t cycle, const MemAccess &req);
    MemReply vectorAccess(uint64_t cycle, const MemAccess &req);
    bool takeVectorPort(uint64_t cycle);

    uint64_t _vpCycle = ~0ull;
    uint32_t _vpUsed = 0;
};

} // namespace momsim::mem

#endif // MOMSIM_MEM_HIERARCHY_HH
