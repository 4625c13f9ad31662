/**
 * @file
 * Persistent, content-addressed storage for completed experiments, and
 * the RunPlan layer that turns a sweep from "execute everything" into
 * "simulate only what is missing, where this process is responsible".
 *
 * Every ResultRow is keyed by (canonical point id + run-length limits,
 * workload content fingerprint, result-schema version), so a cached row
 * is replayed only when the simulated configuration, the synthesized
 * workload and the row format are all exactly the ones that produced
 * it. Rows persist as JSON-lines (`results.jsonl` inside --cache-dir);
 * doubles are written with enough digits that parsing returns the
 * bit-identical value, which is what lets cached rows splice back into
 * a sink with byte-identical CSV/JSON/stdout renderings.
 *
 * The same plan drives scale-out: planSweep() deals the expanded spec
 * list across N shards with a cost model (8-thread and real-memory
 * points are several times more expensive than 1-thread perfect-memory
 * ones), deterministically — every shard process computes the identical
 * assignment from the spec list alone, independent of its local cache
 * state, so per-shard stores can be produced on different machines and
 * merged into the canonical unsharded output.
 */

#ifndef MOMSIM_DRIVER_RESULT_STORE_HH
#define MOMSIM_DRIVER_RESULT_STORE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "driver/experiment.hh"
#include "driver/result_sink.hh"

namespace momsim::svc
{
struct JsonValue;
}

namespace momsim::driver
{

/**
 * Version of the ResultRow on-disk format. Bump whenever a serialized
 * field is added, removed or retyped; old stores then miss on every
 * lookup instead of replaying rows that lack the new data.
 * v2 = v1 (PR 1's row) + hit_cycle_limit.
 * v3 = v2 + workload (the registry workload-spec name).
 * v4 = v3 + sim_kcps + wall_ms (the run's self-measured throughput).
 */
constexpr int kResultSchemaVersion = 4;

/**
 * Version of the simulator's *semantics*. Bump whenever a change to
 * the core, memory or metric code alters simulation results without
 * changing any config field or workload trace (those are content-
 * hashed into the key already) — e.g. fixing an issue-queue scan bug.
 * Deliberately a hand-bumped constant rather than a build hash: shard
 * processes on different machines must agree on keys.
 */
constexpr int kSimCodeVersion = 1;

/**
 * Content hash of the configuration the spec actually simulates: the
 * post-tweak CoreConfig and MemConfig, field by field. This is what
 * keys a variant by its *parameters* rather than its label, so editing
 * a tweak closure behind an unchanged label still invalidates cached
 * rows.
 */
uint64_t configFingerprint(const ExperimentSpec &spec);

/**
 * One row as a single JSON line (no trailing newline; ResultRow.wallMs
 * — the experiment wall clock — is not serialized, but the run's own
 * sim_kcps/wall_ms self-measurement is, so cached rows keep their
 * original throughput numbers).
 *
 * The writer makes one pass and builds no temporary string: integers
 * and doubles go through std::to_chars, doubles in general format with
 * precision 17. The bytes are a contract — stores, streamed rows and
 * goldens hold them — so they equal what printf's %.17g/%d/%llu and
 * jsonEscape produce, field for field, in a fixed order.
 */
std::string serializeResultRow(const ResultRow &row);

/**
 * serializeResultRow(@p row) appended to @p out. @p withTiming=false
 * writes sim_kcps and wall_ms as 0, as a zeroed row would serialize.
 */
void appendResultRow(std::string &out, const ResultRow &row,
                     bool withTiming);

/** A serialized row's typical size plus slack: a reserve() hint. */
constexpr size_t kResultRowBytesHint = 640;

/**
 * Parse a line produced by serializeResultRow with the service's
 * strict JSON parser (svc/json.hh), the same reader ResultStore uses
 * for its own lines. The line must be one JSON object, every row field
 * present and well typed, and "schema" equal to kResultSchemaVersion;
 * unknown fields (a store line's "key") are ignored. Doubles
 * round-trip exactly.
 */
bool parseResultRow(const std::string &line, ResultRow &out);

/**
 * One store line appended to @p out (no newline): `{"key":...,` then
 * @p row's fields, as ResultStore files hold them and a streamed
 * SimRequest emits them. @p withTiming as appendResultRow.
 */
void appendStoreLine(std::string &out, const std::string &key,
                     const ResultRow &row, bool withTiming);

/**
 * Read one parsed store line: a non-empty string "key" plus a row that
 * parseResultRow would accept. ResultStore::loadFile and the fabric
 * coordinator's reader of streamed rows both go through it.
 */
bool readStoreLine(const svc::JsonValue &doc, std::string &key,
                   ResultRow &row);

/** The lookup key: canonical id + limits + fingerprint + schema. */
std::string resultCacheKey(const ExperimentSpec &spec,
                           uint64_t workloadFingerprint);

/**
 * Relative simulation cost of one point, used to deal shards evenly
 * and to queue each sweep's points on the scheduler heaviest-first
 * (ExperimentRunner::run), so an expensive point never starts last.
 * Calibrated to the ROADMAP observation that 8-thread configurations
 * cost ~4x the 1-thread ones; real-memory hierarchies add ~50% over
 * the perfect one. A run is one pass over the rotation, so cost scales
 * linearly with the workload's program count (@p workloadPrograms;
 * 8 = the paper mix).
 */
double specCost(const ExperimentSpec &spec, int workloadPrograms = 8);

/**
 * Keyed row storage with optional JSON-lines persistence. openDir()
 * binds the store to `<dir>/results.jsonl` (created on demand): rows
 * already there become lookup hits and every put() appends. loadFile()
 * merges another store's file read-only — the mechanism behind
 * --merge. Later lines win, so appending the same key twice is
 * harmless.
 *
 * Concurrency: put(), find() and size() are thread-safe — concurrent
 * requests sharing one store (the serve daemon's --cache-dir) persist
 * distinct points from different workers by design. File appends
 * additionally serialize on a process-wide per-file lock keyed by the
 * *canonical* path, so two in-process ResultStore instances that a
 * pair of requests opened on the same --cache-dir cannot interleave
 * a line. openDir()/loadFile() and the pointer-returning lookup() are
 * single-threaded-setup APIs: call them before sharing the store.
 */
class ResultStore
{
  public:
    static constexpr const char *kFileName = "results.jsonl";

    /** Create @p dir if needed, load its store file, append to it. */
    bool openDir(const std::string &dir);

    /**
     * Merge @p path's rows into the lookup map without adopting it as
     * the append target. Each line is parsed as parseResultRow does
     * and must carry a non-empty "key". Rows of another schema version
     * are counted and skipped. A truncated final line (a crashed
     * writer) is ignored; corruption anywhere else fails the load.
     */
    bool loadFile(const std::string &path);

    /** Not thread-safe against concurrent put() (the map cell the
     *  pointer names may be overwritten): use find() on shared
     *  stores. Setup/test API, hence exempt from lock analysis. */
    const ResultRow *lookup(const std::string &key) const
        NO_THREAD_SAFETY_ANALYSIS;

    /** Thread-safe lookup-by-copy. */
    bool find(const std::string &key, ResultRow &out) const;

    /** Insert (last wins) and, when openDir() succeeded, append.
     *  Thread-safe, including across instances bound to one file. */
    void put(const std::string &key, const ResultRow &row);

    /**
     * put() unless this store already holds @p key; then nothing is
     * inserted or appended. Atomic against concurrent put()s on this
     * instance, so of two requests that deliver one row to a shared
     * store only the first appends it.
     */
    void putIfAbsent(const std::string &key, const ResultRow &row);

    size_t size() const
    {
        momsim::MutexLock lock(_mutex);
        return _rows.size();
    }

    /** Append-file path; empty for an in-memory store. */
    std::string path() const
    {
        momsim::MutexLock lock(_mutex);
        return _path;
    }

  private:
    /** put() (@p replace) or putIfAbsent(). */
    void insert(const std::string &key, const ResultRow &row,
                bool replace);

    mutable momsim::Mutex _mutex;
    std::unordered_map<std::string, ResultRow> _rows GUARDED_BY(_mutex);
    std::string _path GUARDED_BY(_mutex);
    /** Per-canonical-file process-wide append lock; which lock this
     *  points at is guarded by _mutex (openDir rebinds it), the lock
     *  itself is a capability in its own right. */
    momsim::Mutex *_appendLock GUARDED_BY(_mutex) = nullptr;
};

/** One point of a planned sweep. */
struct PlannedPoint
{
    ExperimentSpec spec;
    std::string key;            ///< resultCacheKey of the spec
    double cost = 1.0;          ///< specCost of the spec
    int shard = 0;              ///< 0-based owning shard
    bool cached = false;        ///< store hit at planning time
    ResultRow row;              ///< the cached row (valid when cached)
};

/**
 * The full sweep with per-point responsibilities resolved. Points stay
 * in sweep order; the runner simulates exactly the points that are
 * this shard's and missed the cache, and splices cached rows back in
 * place.
 */
struct RunPlan
{
    std::vector<PlannedPoint> points;
    int shardIndex = 0;         ///< 0-based
    int shardCount = 1;

    /** Points assigned to this shard. */
    size_t mineCount() const;
    /** This shard's points satisfied from the store. */
    size_t cachedMineCount() const;
    /** This shard's points that must be simulated. */
    size_t simulateCount() const;
};

/**
 * The cost-weighted deal shared by planSweep and the fabric
 * coordinator: assign each item (by its cost) to one of @p binCount
 * bins, heaviest first onto the least-loaded bin (LPT). Ties break
 * toward input order and the lowest bin, so the assignment is a pure
 * function of the cost list — every process that computes it agrees.
 * Returns the bin index per item, in input order.
 */
std::vector<int> dealByCost(const std::vector<double> &costs,
                            int binCount);

/** Per-spec workload fingerprint source (name -> content hash). */
using WorkloadFingerprintFn = std::function<uint64_t(const std::string &)>;
/** Per-spec cost model override (tests inject constants). */
using SpecCostFn = std::function<double(const ExperimentSpec &)>;

/**
 * Key every spec, look it up in @p store (may be null), and deal the
 * points across @p shardCount shards cost-weighted (longest-processing-
 * time-first onto the least-loaded shard; ties break toward sweep
 * order and the lowest shard, so the assignment is deterministic and
 * identical in every shard process regardless of local cache state).
 * Each spec is keyed with its own workload's fingerprint, so one plan
 * spans several mixes and invalidation stays per-workload.
 */
RunPlan planSweep(std::vector<ExperimentSpec> specs,
                  const WorkloadFingerprintFn &fingerprintOf,
                  const SpecCostFn &costOf,
                  const ResultStore *store = nullptr, int shardIndex = 0,
                  int shardCount = 1);

/**
 * The common case: fingerprints and program counts from @p repo
 * (workloads build on first use — callers wanting concurrency call
 * WorkloadRepo::prebuild first).
 */
RunPlan planSweep(std::vector<ExperimentSpec> specs,
                  workloads::WorkloadRepo &repo,
                  const ResultStore *store = nullptr, int shardIndex = 0,
                  int shardCount = 1);

} // namespace momsim::driver

#endif // MOMSIM_DRIVER_RESULT_STORE_HH
