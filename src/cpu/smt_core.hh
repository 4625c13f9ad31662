/**
 * @file
 * The SMT out-of-order core (Figure 2).
 *
 * Pipeline per cycle: commit (per-thread in-order graduation) -> advance
 * in-flight stream memory operations -> issue from the four queues ->
 * dispatch (decode/rename) -> fetch (policy-selected, up to 2 groups of
 * 4). Mispredicted branches flush the offending thread's younger
 * instructions, restore its rename state and stall its fetch for the
 * redirect penalty.
 *
 * Execution is trace-driven: each thread walks a Program's dynamic
 * instruction stream. Register dependences come from the traces' true
 * dataflow; memory timing comes from the attached MemorySystem; wrong
 * paths after a branch mispredict are charged as flush + redirect bubbles
 * rather than executed (see DESIGN.md, substitutions).
 *
 * Simulation-throughput machinery (results are identical to the naive
 * per-cycle walk; the kernel_equivalence CTest gate holds it to the
 * pre-refactor rows byte for byte):
 *
 *  - Structure-of-arrays ROB storage: the scheduling state every
 *    per-cycle scan touches lives in flat arrays — a position column
 *    and a 16-byte hot record per slot pairing a packed metadata word
 *    (generation tag, pending-producer count, queue kind, state) with
 *    a single state-dependent timestamp (ready cycle while waiting,
 *    done cycle once complete) — one slot per (thread, window entry),
 *    all carved from a single core-owned arena together with the
 *    per-thread rename tables and fetch-queue rings. Queue entries
 *    validate by generation tag, so a scan's entire readiness test is
 *    one 16-byte load per entry; a dispatch initializes the whole
 *    record with two stores. The wide per-instruction payload (trace
 *    pointer, producer positions, rename rollback, stream progress)
 *    sits in a cold side array touched once per dispatch/issue/commit.
 *
 *  - Readiness tracking: instead of rescanning every issue-queue entry's
 *    producers each cycle, each ROB slot carries a pending-producer
 *    count and a ready cycle. Producers keep a wakeup list of waiting
 *    consumers; completing an instruction decrements its consumers'
 *    counts and relaxes their ready cycles, so the issue scan is O(1)
 *    per entry. Wakeup records are validated by a per-slot generation
 *    tag, which makes records from squashed (flushed) consumers inert
 *    even after their ROB slot is recycled.
 *
 *  - Wakeup lists live in the core arena, not in per-slot heap
 *    vectors: each slot has a registration count in a dense column and
 *    room for kInlineWaiters 8-byte records (48-bit consumer generation
 *    plus the consumer's slot). Nearly every producer has at most a
 *    few consumers; registrations beyond the inline room go to one
 *    core-wide spill vector tagged with the producer's slot, which a
 *    wakeup scans only when its count says it spilled. Wake order does
 *    not affect results (the updates are a max, a decrement and a min,
 *    which commute), and a running point allocates here only when the
 *    spill vector grows.
 *
 *  - Power-of-two ROB storage: the circular reorder buffer is sized to
 *    the next power of two above the configured window so position
 *    lookup is a mask, not a modulo. Logical capacity is still exactly
 *    windowPerThread.
 *
 *  - Idle fast-forward: when no stage can make progress this cycle,
 *    step() jumps straight to the next cycle at which anything can
 *    change (earliest completion, fetch redirect, queue-entry ready
 *    time, or a memory-structure event from
 *    MemorySystem::nextEventCycle), advancing the round-robin rotations
 *    and per-cycle stall statistics exactly as the skipped no-op cycles
 *    would have.
 */

#ifndef MOMSIM_CPU_SMT_CORE_HH
#define MOMSIM_CPU_SMT_CORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/stats.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/core_config.hh"
#include "isa/trace_inst.hh"
#include "mem/hierarchy.hh"
#include "trace/program.hh"

namespace momsim::cpu
{

class SmtCore
{
  public:
    SmtCore(const CoreConfig &cfg, mem::MemorySystem &mem);

    /** Bind (or replace) the program running in hardware context @p tid. */
    void attachProgram(int tid, const trace::Program *prog);

    /** True once the context has fetched and committed its whole trace. */
    bool threadIdle(int tid) const;

    /** Committed equivalent instructions of the current program so far. */
    uint64_t threadCommittedEq(int tid) const;

    /**
     * Advance the machine one cycle — or, when no stage can make
     * progress, fast-forward to the next cycle at which one can (never
     * past @p horizon, so a caller's cycle limit stays exact).
     */
    void step(uint64_t horizon = ~0ull);

    uint64_t now() const { return _now; }

    // ---- aggregate metrics ----
    uint64_t committedRecords() const { return _committedRecords; }
    uint64_t committedEq() const { return _committedEq; }

    /** Committed equivalent instructions per cycle. */
    double
    ipc() const
    {
        return _now ? static_cast<double>(_committedEq) / _now : 0.0;
    }

    StatGroup &stats() { return _stats; }
    BranchPredictor &predictor() { return _bpred; }
    const CoreConfig &config() const { return _cfg; }

    /** Dump per-thread pipeline state (debugging aid). */
    void debugDump() const;

    /**
     * Cross-check the structure-of-arrays invariants (test hook; see
     * tests/test_kernel.cc). Returns an empty string when consistent,
     * else a description of the first violated invariant. Checked:
     * every in-flight position maps to a slot whose position column
     * holds the position (live) or the squash sentinel; live slots are
     * never State::Empty; queue/stream references resolve to their
     * slot; per-thread queue occupancy counters match the queues;
     * waiter generation tags never run ahead of the owning thread.
     */
    std::string debugLayoutIssue() const;

  private:
    enum class State : uint8_t
    {
        Empty,
        Dispatched,     ///< waiting in an issue queue
        Executing,      ///< issued; stream memory still expanding
        Done,           ///< result ready at doneCycle
    };

    /**
     * One wakeup registration, a consumer waiting on a producer of the
     * same thread: [63:16] the consumer's generation at registration,
     * [15:0] its column slot.
     */
    using Waiter = uint64_t;
    static constexpr int kWaiterGenShift = 16;
    static constexpr uint64_t kWaiterSlotMask = 0xffff;
    /** Registrations a slot holds in the arena before spilling. */
    static constexpr uint32_t kInlineWaiters = 4;

    /** A registration past a producer's inline room. */
    struct SpilledWaiter
    {
        uint32_t producer;  ///< producer's column slot
        Waiter waiter;
    };

    /**
     * Per-slot payload the per-cycle scans never touch: read/written
     * once per dispatch, issue or commit of that instruction. The hot
     * scheduling state lives in the flat columns (_colPos etc.). No
     * initialisers: dispatch writes every field before anything reads
     * it, so the arena leaves these uninitialised.
     */
    struct RobCold
    {
        const isa::TraceInst *inst;     ///< into the thread's trace
        int64_t prod[3];                ///< producer positions, -1 = none
        int64_t prevWriter;             ///< for rename rollback on flush
        uint64_t streamReady;           ///< max element completion
        uint16_t elemsIssued;           ///< stream memory progress
        bool mispredicted;
        bool storeDone;                 ///< scalar store performed at commit
    };

    /**
     * Both the fetch queue and the ROB reference trace instructions by
     * pointer into the (immutable) Program rather than by value: a
     * thread's ROB position equals its trace index, so the pointed-at
     * record outlives the entry, and the pipeline structures shrink to
     * a fraction of the memory traffic per dispatched instruction.
     */
    struct FetchedInst
    {
        const isa::TraceInst *inst = nullptr;
        bool mispredicted = false;
    };

    /**
     * Fixed-capacity ring buffer for the per-thread fetch queue. The
     * queue is bounded by fetchQueueDepth and lives on the kernel's
     * hottest path (one push per fetched instruction, one pop per
     * dispatched one). Storage is a caller-provided span carved from
     * the core arena so every thread's ring sits in one allocation.
     */
    class FetchRing
    {
      public:
        void
        init(FetchedInst *storage, size_t capacityPow2)
        {
            _buf = storage;
            _mask = capacityPow2 - 1;
            _head = _tail = 0;
        }

        bool empty() const { return _head == _tail; }
        size_t size() const { return _tail - _head; }
        const FetchedInst &front() const { return _buf[_head & _mask]; }
        void push_back(const FetchedInst &f) { _buf[_tail++ & _mask] = f; }
        void pop_front() { ++_head; }
        void clear() { _head = _tail = 0; }

      private:
        FetchedInst *_buf = nullptr;
        uint64_t _mask = 0;
        uint64_t _head = 0;
        uint64_t _tail = 0;
    };

    /**
     * Per-thread control state. The wide per-entry structures (ROB
     * columns, rename table, fetch-ring storage) live in the core
     * arena; the thread carries its slot base and pointers into it, so
     * the per-cycle commit/dispatch/fetch scans walking every thread
     * stay within a few cache lines per thread.
     */
    struct Thread
    {
        const trace::Program *prog = nullptr;
        size_t cursor = 0;              ///< next trace index to fetch
        uint64_t head = 0;              ///< oldest in-flight position
        uint64_t tail = 0;              ///< next position to allocate
        uint64_t fetchReady = 0;        ///< icache stall / redirect
        uint64_t committedEq = 0;       ///< for the current program
        uint64_t genTick = 0;           ///< generation source for entries
        uint32_t slotBase = 0;          ///< first column slot of this thread
        int iqCount = 0;                ///< decoded-not-issued (ICOUNT)
        int64_t oqCount = 0;            ///< eq-weighted (OCOUNT)
        bool lastFetchVector = false;   ///< for BALANCE
        FetchRing fetchQ;
        int64_t *rename = nullptr;      ///< logical reg -> producer pos (256)
    };

    /**
     * Issue-queue/stream-list reference. Carries the flat column slot
     * (slots never move) plus the allocation's generation tag, so a
     * scan validates the entry (generation + state) and reads its
     * readiness from the slot's single 16-byte hot record — no Thread
     * indirection, no position column. tid and pos stay for flush
     * scrubbing and the debug layout invariants.
     */
    struct IqEntry
    {
        uint64_t pos;
        uint64_t gen;
        uint32_t slot;
        int32_t tid;
    };

    /** Why (or whether) the head of a thread's fetch queue can't rename. */
    enum class DispatchGate : uint8_t
    {
        Ok,
        RobFull,
        IqFull,
        RegFull,
    };

    void commitStage();
    void issueStage();
    void streamStage();
    void dispatchStage();
    void fetchStage();

    void flushThread(int tid, uint64_t branchPos);
    /** Column slot of @p pos within thread @p t (pos may be in flight). */
    size_t
    slotOf(const Thread &t, uint64_t pos) const
    {
        return t.slotBase + static_cast<size_t>(pos & _robMask);
    }

    // ---- per-slot hot record: the two words every scan reads ----
    //
    // `meta` packs [63:16] generation tag, [15:8] pending producers
    // (<= 3), [7:4] isa::QueueKind, [3:0] State. `when` is the slot's
    // scheduling timestamp, interpreted by state: the operand-ready
    // cycle while Dispatched, the completion cycle once Done — the two
    // are never needed at the same time, so they share one word. Pairing
    // the words keeps a scan's entire readiness test (staleness, state,
    // pending count, cycle comparison) inside a single 16-byte load.
    struct SlotHot
    {
        uint64_t when;      ///< ready cycle (Dispatched) / done cycle (Done)
        uint64_t meta;      ///< packed gen/pending/qkind/state
    };

    static constexpr uint64_t kMetaStateMask = 0xfull;
    static constexpr int kMetaQKindShift = 4;
    static constexpr int kMetaPendShift = 8;
    static constexpr uint64_t kMetaPendOne = 1ull << kMetaPendShift;
    static constexpr int kMetaGenShift = 16;
    /// 48-bit generation space: unique per allocation for any run short
    /// of 2^48 dispatches per thread (centuries of simulated time).
    static constexpr uint64_t kMetaGenMask = ~0ull >> kMetaGenShift;

    static State
    metaState(uint64_t m)
    {
        return static_cast<State>(m & kMetaStateMask);
    }
    static int
    metaQKind(uint64_t m)
    {
        return static_cast<int>((m >> kMetaQKindShift) & 0xf);
    }
    static int
    metaPending(uint64_t m)
    {
        return static_cast<int>((m >> kMetaPendShift) & 0xff);
    }
    static uint64_t
    metaGen(uint64_t m)
    {
        return m >> kMetaGenShift;
    }
    static uint64_t
    metaPack(uint64_t gen, int pending, isa::QueueKind kind, State st)
    {
        return (gen << kMetaGenShift) |
               (static_cast<uint64_t>(pending) << kMetaPendShift) |
               (static_cast<uint64_t>(kind) << kMetaQKindShift) |
               static_cast<uint64_t>(st);
    }
    /** Rewrite only the state field of slot @p s. */
    void
    setMetaState(size_t s, State st)
    {
        _hot[s].meta = (_hot[s].meta & ~kMetaStateMask) |
                       static_cast<uint64_t>(st);
    }
    int physPoolOf(isa::RegRef reg) const;
    const std::vector<int> &fetchOrder();
    bool vectorPipeEmpty() const;
    void issueFromQueue(std::vector<IqEntry> &queue, int width,
                        isa::QueueKind kind);
    bool tryExecute(int tid, size_t slot, isa::QueueKind kind);

    /**
     * Resolve producers of a freshly allocated slot: set its ready
     * column, register waiters (tagged @p pos / @p gen) on unresolved
     * producers, and return the pending-producer count for the
     * dispatcher's metadata pack.
     */
    int trackProducers(Thread &t, size_t slot, uint64_t gen);
    /** Register @p w on producer @p slot's wakeup list. */
    void
    addWaiter(size_t slot, Waiter w)
    {
        uint32_t n = _waitCount[slot]++;
        if (n < kInlineWaiters)
            _waitInline[slot * kInlineWaiters + n] = w;
        else
            spillWaiter(slot, w);
    }
    /** Empty slot @p slot's wakeup list (the slot is being reused). */
    void
    clearWaiters(size_t slot)
    {
        if (_waitCount[slot] > kInlineWaiters)
            dropSpilled(slot, nullptr);
        _waitCount[slot] = 0;
    }
    /** Producer @p slot just reached Done: wake registered consumers. */
    void wakeDependents(size_t slot);
    /** Deliver producer completion @p done to one registration. */
    void wakeOne(Waiter w, uint64_t done);
    // The spill paths run for about 1% of wakes; keeping them out of
    // line keeps the common paths' register use at the inline loop's.
    [[gnu::cold]] void spillWaiter(size_t slot, Waiter w);
    /** Remove producer @p slot's spilled records, first delivering
     *  @p done (when given) to each. */
    [[gnu::cold]] void dropSpilled(size_t slot, const uint64_t *done);
    /** Slot @p slot became ready: lower its queue's earliest-ready bound. */
    void
    relaxQueueBound(size_t slot)
    {
        const SlotHot h = _hot[slot];
        uint64_t &bound = _queueMinReady[metaQKind(h.meta)];
        if (h.when < bound)
            bound = h.when;
    }
    /**
     * The structural gate dispatch would hit for thread @p t's head.
     * On Ok, @p kindOut (when given) receives the target queue kind so
     * the dispatcher doesn't re-derive it.
     */
    DispatchGate dispatchGate(const Thread &t, const FetchedInst &f,
                              isa::QueueKind *kindOut = nullptr) const;

    /**
     * Earliest cycle >= _now at which any stage can make progress (_now
     * itself when one can right now; ~0ull when nothing is scheduled).
     */
    uint64_t nextEventCycle() const;
    /** Jump to @p target, accounting the skipped no-op cycles. */
    void fastForwardTo(uint64_t target);

    CoreConfig _cfg;
    mem::MemorySystem &_mem;
    BranchPredictor _bpred;

    std::vector<Thread> _threads;
    std::vector<IqEntry> _intQ, _memQ, _fpQ, _simdQ;
    std::vector<IqEntry> _activeStreams;

    // ---- structure-of-arrays ROB state ----
    //
    // One slot per (thread, window entry): slot = thread.slotBase +
    // (pos & _robMask). The hot scheduling columns below, the wakeup
    // lists, the cold payload, every thread's rename table and
    // fetch-ring buffer are carved from _arenaStore, one contiguous
    // cache-aligned allocation, so a simulation's per-cycle working
    // set is dense and prefetchable. Only the columns read before
    // they are written are zeroed at construction.
    std::unique_ptr<std::byte[]> _arenaStore;
    uint64_t *_colPos = nullptr;    ///< absolute position, ~0ull = squashed
    SlotHot *_hot = nullptr;        ///< when + meta, see SlotHot
    uint32_t *_waitCount = nullptr; ///< registrations per producer slot
    Waiter *_waitInline = nullptr;  ///< kInlineWaiters per slot
    RobCold *_cold = nullptr;       ///< cold payload, parallel to columns
    uint64_t _robMask = 0;          ///< per-thread window storage mask
    size_t _numSlots = 0;
    /** Registrations past a slot's inline room (rare; see above). */
    std::vector<SpilledWaiter> _waitSpill;

    /**
     * Per-queue lower bound (indexed by QueueKind) on the earliest
     * cycle any entry can be ready: issueFromQueue skips its whole scan
     * while the bound is in the future. Lowered when a ready entry
     * dispatches or a wakeup clears an entry's last pending producer;
     * recomputed exactly from the surviving entries after each scan. A
     * too-low bound only costs a no-op scan, never correctness.
     */
    uint64_t _queueMinReady[4] = { ~0ull, ~0ull, ~0ull, ~0ull };

    // Shared physical register pools: [0]=int, [1]=fp, [2]=simd.
    int _freeRegs[3] = { 0, 0, 0 };

    // Unpipelined / occupied functional units.
    uint64_t _divBusyUntil = 0;
    uint64_t _fdivBusyUntil = 0;
    uint64_t _momFuBusyUntil = 0;

    uint64_t _now = 0;
    uint64_t _committedRecords = 0;
    uint64_t _committedEq = 0;
    int _fetchRotate = 0;
    int _dispatchRotate = 0;
    StatGroup _stats;

    // Per-cycle scratch (a member so the hot loop never allocates).
    std::vector<int> _fetchOrderBuf;

    // Hot-path counters, resolved to stable StatIds once so per-event
    // accounting is an indexed increment instead of a string lookup.
    StatId _ctrCommits = 0;
    StatId _ctrCommitInt = 0;
    StatId _ctrCommitFp = 0;
    StatId _ctrCommitSimd = 0;
    StatId _ctrCommitMem = 0;
    StatId _ctrIssued = 0;
    StatId _ctrDispatched = 0;
    StatId _ctrFetched = 0;
    StatId _ctrCondBranches = 0;
    StatId _ctrRobFullStalls = 0;
    StatId _ctrIqFullStalls = 0;
    StatId _ctrRegFullStalls = 0;
    StatId _ctrIdleCyclesSkipped = 0;
    StatId _ctrCommitStoreStalls = 0;
    StatId _ctrMispredicts = 0;
    StatId _ctrFlushes = 0;
    StatId _ctrSquashed = 0;
    StatId _ctrIfetchRejected = 0;
    StatId _ctrIcacheMissStalls = 0;

    /**
     * Set when the last stage pass made no visible progress; gates the
     * nextEventCycle() scan so active cycles never pay for it. Purely a
     * scheduling heuristic — results are identical with or without it.
     */
    bool _probablyIdle = false;
};

} // namespace momsim::cpu

#endif // MOMSIM_CPU_SMT_CORE_HH
