#include "driver/result_store.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>

#include "common/hash.hh"
#include "common/logging.hh"
#include "svc/json.hh"

namespace momsim::driver
{

namespace
{

/** Append `name` and @p v's decimal text (printf's %d / %llu). */
template <typename Int>
void
numField(std::string &out, const char *name, Int v)
{
    char buf[24];       // UINT64_MAX is 20 digits
    out += name;
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/**
 * Append `name` and @p v's exact text. 17 significant digits guarantee
 * that strtod of the output returns the bit-identical value, so a
 * cached row re-renders (CSV %.6g, table %.2f, ...) byte-identically
 * to the run that produced it. std::to_chars in general format with
 * precision 17 is specified as printf's %.17g, so stored bytes match
 * every row written before; shortest round-trip output would not.
 * Presentation formats live in ResultSink; this one is for storage.
 */
void
numField(std::string &out, const char *name, double v)
{
    char buf[32];       // "-d.dddddddddddddddde-308" is 24 chars
    out += name;
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17)
                        .ptr);
}

/** Append `name` and the JSON string literal of @p s. */
void
stringField(std::string &out, const char *name, std::string_view s)
{
    out += name;
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

/**
 * Append the row's members to @p out in one pass. Each name literal
 * carries its separator; they stay in this file because momlint's
 * schema lock reads the serialized field names here.
 * @p withTiming=false writes sim_kcps and wall_ms as 0.
 */
void
appendRowFields(std::string &out, const ResultRow &r, bool withTiming)
{
    numField(out, "\"schema\":", kResultSchemaVersion);
    stringField(out, ",\"id\":", r.id);
    stringField(out, ",\"workload\":", r.workload);
    stringField(out, ",\"isa\":", isa::toString(r.simd));
    numField(out, ",\"threads\":", r.threads);
    stringField(out, ",\"mem\":", mem::toString(r.memModel));
    stringField(out, ",\"policy\":", cpu::toString(r.policy));
    stringField(out, ",\"variant\":", r.variant);
    numField(out, ",\"seed\":", r.seed);
    numField(out, ",\"cycles\":", r.run.cycles);
    numField(out, ",\"committed_eq\":", r.run.committedEq);
    numField(out, ",\"ipc\":", r.run.ipc);
    numField(out, ",\"eipc\":", r.run.eipc);
    numField(out, ",\"headline\":", r.headline);
    numField(out, ",\"l1_hit_rate\":", r.run.l1HitRate);
    numField(out, ",\"icache_hit_rate\":", r.run.icacheHitRate);
    numField(out, ",\"l1_avg_latency\":", r.run.l1AvgLatency);
    numField(out, ",\"mispredicts\":", r.run.mispredicts);
    numField(out, ",\"cond_branches\":", r.run.condBranches);
    numField(out, ",\"completions\":", r.run.completions);
    out += r.run.hitCycleLimit ? ",\"hit_cycle_limit\":true"
                               : ",\"hit_cycle_limit\":false";
    numField(out, ",\"sim_kcps\":", withTiming ? r.run.simKcps : 0.0);
    numField(out, ",\"wall_ms\":", withTiming ? r.run.wallMs : 0.0);
}

/**
 * Fill @p out from a parsed row object. Every row field must be
 * present and well typed, and "schema" must be kResultSchemaVersion;
 * any other field (a store line's "key") is ignored.
 */
bool
rowFromJson(const svc::JsonValue &doc, ResultRow &out)
{
    auto str = [&doc](const char *name, std::string &v) {
        const svc::JsonValue *f = doc.field(name);
        if (!f || !f->isString())
            return false;
        v = f->text;
        return true;
    };
    // An enum token's text, or "" (which no fromString accepts).
    auto token = [&doc](const char *name) {
        const svc::JsonValue *f = doc.field(name);
        return f && f->isString() ? f->text.c_str() : "";
    };
    auto u64 = [&doc](const char *name, uint64_t &v) {
        const svc::JsonValue *f = doc.field(name);
        return f && f->toU64(v);
    };
    auto i32 = [&doc](const char *name, int &v) {
        const svc::JsonValue *f = doc.field(name);
        return f && f->toInt(v);
    };
    auto dbl = [&doc](const char *name, double &v) {
        const svc::JsonValue *f = doc.field(name);
        return f && f->toDouble(v);
    };
    auto flag = [&doc](const char *name, bool &v) {
        const svc::JsonValue *f = doc.field(name);
        if (!f || !f->isBool())
            return false;
        v = f->boolean;
        return true;
    };
    ResultRow row;
    int schema = 0;
    if (!i32("schema", schema) || schema != kResultSchemaVersion ||
        !str("id", row.id) || !str("workload", row.workload) ||
        !isa::fromString(token("isa"), row.simd) ||
        !i32("threads", row.threads) ||
        !mem::fromString(token("mem"), row.memModel) ||
        !cpu::fromString(token("policy"), row.policy) ||
        !str("variant", row.variant) || !u64("seed", row.seed) ||
        !u64("cycles", row.run.cycles) ||
        !u64("committed_eq", row.run.committedEq) ||
        !dbl("ipc", row.run.ipc) || !dbl("eipc", row.run.eipc) ||
        !dbl("headline", row.headline) ||
        !dbl("l1_hit_rate", row.run.l1HitRate) ||
        !dbl("icache_hit_rate", row.run.icacheHitRate) ||
        !dbl("l1_avg_latency", row.run.l1AvgLatency) ||
        !u64("mispredicts", row.run.mispredicts) ||
        !u64("cond_branches", row.run.condBranches) ||
        !i32("completions", row.run.completions) ||
        !flag("hit_cycle_limit", row.run.hitCycleLimit) ||
        !dbl("sim_kcps", row.run.simKcps) || !dbl("wall_ms", row.run.wallMs))
        return false;
    out = std::move(row);
    return true;
}

/** Create every missing component of @p dir (mkdir -p). */
bool
makeDirs(const std::string &dir)
{
    size_t start = 0;
    while (start <= dir.size()) {
        size_t slash = dir.find('/', start);
        if (slash == std::string::npos)
            slash = dir.size();
        std::string prefix = dir.substr(0, slash);
        if (!prefix.empty() && prefix != ".")
            ::mkdir(prefix.c_str(), 0755);      // EEXIST is fine
        start = slash + 1;
    }
    struct stat st;
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

void
appendResultRow(std::string &out, const ResultRow &row, bool withTiming)
{
    out += '{';
    appendRowFields(out, row, withTiming);
    out += '}';
}

std::string
serializeResultRow(const ResultRow &row)
{
    std::string out;
    out.reserve(kResultRowBytesHint);
    appendResultRow(out, row, true);
    return out;
}

bool
parseResultRow(const std::string &line, ResultRow &out)
{
    svc::JsonValue doc;
    std::string error;
    return svc::parseJson(line, doc, error) && rowFromJson(doc, out);
}

void
appendStoreLine(std::string &out, const std::string &key,
                const ResultRow &row, bool withTiming)
{
    stringField(out, "{\"key\":", key);
    out += ',';
    appendRowFields(out, row, withTiming);
    out += '}';
}

bool
readStoreLine(const svc::JsonValue &doc, std::string &key, ResultRow &row)
{
    const svc::JsonValue *k = doc.field("key");
    if (!k || !k->isString() || k->text.empty() || !rowFromJson(doc, row))
        return false;
    key = k->text;
    return true;
}

uint64_t
configFingerprint(const ExperimentSpec &spec)
{
    // NOTE: adding a field to CoreConfig/MemConfig/CacheConfig/
    // DramConfig requires folding it here, or rows cached across the
    // change may be replayed stale. Kept exhaustive on purpose — this
    // hash is what makes a tweak closure's *parameters* part of the
    // cache key instead of just its label.
    cpu::CoreConfig c =
        cpu::CoreConfig::preset(spec.threads, spec.simd, spec.policy);
    if (spec.tweakCore)
        spec.tweakCore(c);
    mem::MemConfig m;
    if (spec.tweakMem)
        spec.tweakMem(m);

    uint64_t h = kHashSeed;
    auto fold = [&h](uint64_t v) { h = hashMix64(h, v); };
    auto foldInt = [&fold](int v) { fold(static_cast<uint64_t>(v)); };
    auto foldCache = [&](const mem::CacheConfig &cc) {
        h = hashMixString(h, cc.name);
        fold(cc.sizeBytes);
        fold(cc.lineBytes);
        fold(cc.ways);
        fold(cc.banks);
        fold(cc.bankShift);
        fold(cc.hitLatency);
        fold(cc.numMshrs);
        fold(cc.writeBufferEntries);
        fold(cc.writeBack ? 1 : 0);
        fold(cc.portsPerCycle);
        fold(cc.bankPumps);
        fold(cc.fillBytesPerCycle);
    };

    foldInt(c.numThreads);
    foldInt(static_cast<int>(c.simd));
    foldInt(static_cast<int>(c.fetchPolicy));
    foldInt(c.fetchGroups);
    foldInt(c.fetchGroupSize);
    foldInt(c.fetchQueueDepth);
    foldInt(c.decodeWidth);
    foldInt(c.mispredictPenalty);
    foldInt(c.intIssue);
    foldInt(c.memIssue);
    foldInt(c.fpIssue);
    foldInt(c.simdIssue);
    foldInt(c.vectorLanes);
    foldInt(c.commitWidth);
    foldInt(c.windowPerThread);
    foldInt(c.intQueue);
    foldInt(c.memQueue);
    foldInt(c.fpQueue);
    foldInt(c.simdQueue);
    foldInt(c.intPhysRegs);
    foldInt(c.fpPhysRegs);
    foldInt(c.simdPhysRegs);
    // Results-neutral by contract (the differential test enforces it),
    // but folded anyway: the fingerprint is exhaustive over config
    // fields, full stop.
    foldInt(c.enableFastForward ? 1 : 0);

    foldCache(m.l1);
    foldCache(m.icache);
    foldCache(m.l2);
    fold(m.dram.accessLatency);
    fold(m.dram.bytesPerCycle);
    fold(m.dram.numDevices);
    fold(m.dram.deviceShift);
    fold(m.dram.deviceBusy);
    fold(m.vectorPorts);
    fold(m.invalidatePenalty);
    return h;
}

std::string
resultCacheKey(const ExperimentSpec &spec, uint64_t workloadFingerprint)
{
    // The per-task seed participates: a row records its seed (and any
    // future stochastic component consumes it), so a --seed 7 run must
    // never replay rows produced under --seed 0. The config fingerprint
    // keys variants by their actual post-tweak parameters, and the code
    // version invalidates on simulator-semantics changes.
    return strfmt("%s|tc%d|mc%llu|s%016llx|cc%016llx|fp%016llx|v%d.%d",
                  spec.canonicalId().c_str(), spec.targetCompletions,
                  static_cast<unsigned long long>(spec.maxCycles),
                  static_cast<unsigned long long>(spec.seed),
                  static_cast<unsigned long long>(configFingerprint(spec)),
                  static_cast<unsigned long long>(workloadFingerprint),
                  kResultSchemaVersion, kSimCodeVersion);
}

double
specCost(const ExperimentSpec &spec, int workloadPrograms)
{
    // Linear fit through cost(1thr)=1, cost(8thr)=4 (ROADMAP's measured
    // ratio for the sweep-aware-scheduling item).
    double cost = (4.0 + 3.0 * spec.threads) / 7.0;
    if (spec.memModel != mem::MemModel::Perfect)
        cost *= 1.5;
    // One run is one pass over the rotation: a 16-program mix is ~2x
    // the work of the 8-program paper mix at the same configuration.
    cost *= static_cast<double>(workloadPrograms) / 8.0;
    return cost;
}

namespace
{

/**
 * The process-wide append lock for one store file, keyed by the
 * canonical (realpath) directory so "cache" and "./cache" — or two
 * ResultStore instances different requests opened on one --cache-dir —
 * resolve to the same mutex. Entries are never removed: the set of
 * distinct cache dirs a process touches is tiny, and a stable address
 * is what lets stores cache the pointer.
 */
Mutex &
appendLockFor(const std::string &dir)
{
    // registry is guarded by registryMutex; every access below is
    // inside one MutexLock hold, so the guard needs no attribute (and
    // GUARDED_BY is not specified for function-local statics).
    static Mutex registryMutex;
    static std::unordered_map<std::string, std::unique_ptr<Mutex>>
        registry;
    std::string key = dir;
    if (char *canon = ::realpath(dir.c_str(), nullptr)) {
        key.assign(canon);
        std::free(canon);
    }
    MutexLock lock(registryMutex);
    std::unique_ptr<Mutex> &slot = registry[key];
    if (!slot)
        slot = std::make_unique<Mutex>();
    return *slot;
}

} // namespace

bool
ResultStore::openDir(const std::string &dir)
{
    if (dir.empty() || !makeDirs(dir))
        return false;
    std::string path = dir + "/" + kFileName;
    Mutex *appendLock = &appendLockFor(dir);
    {
        MutexLock lock(_mutex);
        _path = path;
        _appendLock = appendLock;
    }
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return true;    // nothing persisted yet: an empty, bound store
    std::fclose(f);
    return loadFile(path);
}

bool
ResultStore::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        return false;

    // Parse the whole file into file-ordered rows first, then merge
    // under one lock hold: the parse is the expensive part, and doing
    // it unlocked keeps a big --merge load from stalling concurrent
    // find()/put() traffic on a shared store.
    std::vector<std::pair<std::string, ResultRow>> parsed;
    size_t foreignRows = 0;
    svc::JsonValue doc;     // one document reused for every line
    std::string line, error;
    size_t start = 0;
    while (start < text.size()) {
        size_t eol = text.find('\n', start);
        bool lastLine = eol == std::string::npos;
        if (lastLine)
            eol = text.size();
        line.assign(text, start, eol - start);
        start = eol + 1;
        if (line.empty())
            continue;
        if (svc::parseJson(line, doc, error)) {
            std::string key;
            ResultRow row;
            if (readStoreLine(doc, key, row)) {
                parsed.emplace_back(std::move(key), std::move(row));
                continue;
            }
            // Rows written under another schema version are not
            // corruption — they simply can never hit (the key embeds
            // the version), so a bumped binary reuses the same store
            // and old rows fall away as misses.
            const svc::JsonValue *schema = doc.field("schema");
            int version = 0;
            if (schema && schema->toInt(version) &&
                version != kResultSchemaVersion) {
                ++foreignRows;
                continue;
            }
        }
        // A truncated final line means a writer died mid-append; the
        // rows before it are still good. Anything else is corruption
        // the caller must know about.
        if (lastLine) {
            warn("result store: ignoring truncated final line in " + path);
            continue;
        }
        return false;
    }
    if (foreignRows)
        warn(strfmt("result store: skipped %zu row(s) of another schema "
                    "version in %s", foreignRows, path.c_str()));
    MutexLock lock(_mutex);
    for (auto &kv : parsed)
        _rows[kv.first] = std::move(kv.second);     // last wins
    return true;
}

const ResultRow *
ResultStore::lookup(const std::string &key) const
{
    auto it = _rows.find(key);
    return it == _rows.end() ? nullptr : &it->second;
}

bool
ResultStore::find(const std::string &key, ResultRow &out) const
{
    MutexLock lock(_mutex);
    auto it = _rows.find(key);
    if (it == _rows.end())
        return false;
    out = it->second;
    return true;
}

void
ResultStore::put(const std::string &key, const ResultRow &row)
{
    insert(key, row, true);
}

void
ResultStore::putIfAbsent(const std::string &key, const ResultRow &row)
{
    insert(key, row, false);
}

void
ResultStore::insert(const std::string &key, const ResultRow &row,
                    bool replace)
{
    // Snapshot the path *and* the append lock together: a concurrent
    // openDir() may rebind both, and appending to the new path under
    // the old file's lock would lose the whole-line guarantee.
    std::string path;
    Mutex *appendLock = nullptr;
    {
        MutexLock lock(_mutex);
        auto [it, inserted] = _rows.try_emplace(key, row);
        if (!inserted) {
            if (!replace)
                return;
            it->second = row;
        }
        path = _path;
        appendLock = _appendLock;
    }
    if (path.empty())
        return;
    std::string line;
    line.reserve(kResultRowBytesHint + key.size());
    appendStoreLine(line, key, row, true);
    line += '\n';
    bool shortWrite;
    {
        // One whole line per lock hold: concurrent puts — from this
        // store's workers or a sibling store another request bound to
        // the same file — append whole lines, never interleaved bytes.
        MutexLock appendHold(*appendLock);
        std::FILE *f = std::fopen(path.c_str(), "a");
        if (!f) {
            warn("result store: cannot append to " + path);
            return;
        }
        size_t written = std::fwrite(line.data(), 1, line.size(), f);
        shortWrite = std::fclose(f) != 0 || written != line.size();
    }
    if (shortWrite) {
        // A partial line may now be on disk. Stop appending: another
        // put would continue on the same line and turn a tolerable
        // truncated *tail* into corruption in the *middle* of the
        // file, which loadFile rightly refuses.
        warn("result store: short write to " + path +
             "; disabling persistence for this run");
        MutexLock lock(_mutex);
        _path.clear();
    }
}

size_t
RunPlan::mineCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex;
    return count;
}

size_t
RunPlan::cachedMineCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex && p.cached;
    return count;
}

size_t
RunPlan::simulateCount() const
{
    size_t count = 0;
    for (const PlannedPoint &p : points)
        count += p.shard == shardIndex && !p.cached;
    return count;
}

RunPlan
planSweep(std::vector<ExperimentSpec> specs,
          const WorkloadFingerprintFn &fingerprintOf,
          const SpecCostFn &costOf, const ResultStore *store,
          int shardIndex, int shardCount)
{
    MOMSIM_ASSERT(shardCount >= 1 && shardIndex >= 0 &&
                      shardIndex < shardCount,
                  "invalid shard selection");

    RunPlan plan;
    plan.shardIndex = shardIndex;
    plan.shardCount = shardCount;
    plan.points.reserve(specs.size());
    for (ExperimentSpec &spec : specs) {
        PlannedPoint p;
        p.key = resultCacheKey(spec, fingerprintOf(spec.workload));
        p.cost = costOf(spec);
        p.spec = std::move(spec);
        if (store) {
            // find(), not lookup(): on a serve daemon's shared store
            // another request may be put()ting concurrently.
            ResultRow hit;
            if (store->find(p.key, hit)) {
                p.cached = true;
                p.row = std::move(hit);
            }
        }
        plan.points.push_back(std::move(p));
    }

    // Cost-weighted dealing: heaviest points first, each onto the
    // least-loaded shard. Depends only on the spec list — never on the
    // cache — so independent shard processes agree on the assignment.
    std::vector<double> costs;
    costs.reserve(plan.points.size());
    for (const PlannedPoint &p : plan.points)
        costs.push_back(p.cost);
    std::vector<int> bins = dealByCost(costs, shardCount);
    for (size_t i = 0; i < plan.points.size(); ++i)
        plan.points[i].shard = bins[i];
    return plan;
}

std::vector<int>
dealByCost(const std::vector<double> &costs, int binCount)
{
    MOMSIM_ASSERT(binCount >= 1, "dealByCost needs at least one bin");
    std::vector<size_t> order(costs.size());
    std::iota(order.begin(), order.end(), size_t { 0 });
    std::stable_sort(order.begin(), order.end(),
                     [&costs](size_t a, size_t b) {
                         return costs[a] > costs[b];
                     });
    std::vector<double> load(static_cast<size_t>(binCount), 0.0);
    std::vector<int> bins(costs.size(), 0);
    for (size_t idx : order) {
        size_t best = 0;
        for (size_t s = 1; s < load.size(); ++s) {
            if (load[s] < load[best])
                best = s;
        }
        bins[idx] = static_cast<int>(best);
        load[best] += costs[idx];
    }
    return bins;
}

RunPlan
planSweep(std::vector<ExperimentSpec> specs, workloads::WorkloadRepo &repo,
          const ResultStore *store, int shardIndex, int shardCount)
{
    return planSweep(
        std::move(specs),
        [&repo](const std::string &name) {
            return repo.fingerprintOf(name);
        },
        [&repo](const ExperimentSpec &spec) {
            return specCost(spec, repo.get(spec.workload)->numPrograms());
        },
        store, shardIndex, shardCount);
}

} // namespace momsim::driver
