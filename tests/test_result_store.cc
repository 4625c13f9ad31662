/**
 * @file
 * Tests for the result-store subsystem: ResultRow write→read
 * round-trips (every field, exact doubles), the writer's bytes pinned
 * to a printf reference, cache-key invalidation on
 * workload-fingerprint and schema changes, on-disk store persistence,
 * cost-weighted shard planning, and the end-to-end contracts the CI
 * shard-equivalence and warm-cache jobs also enforce: a sharded-and-
 * merged sweep is byte-identical to the unsharded run, and a warm
 * cache simulates zero points.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "svc/json.hh"
#include "tests/csv_test_util.hh"
#include "workloads/workload_repo.hh"

namespace momsim::driver
{
namespace
{

using isa::SimdIsa;

/** Constant-fingerprint planSweep inputs for unit tests. */
WorkloadFingerprintFn
constFp(uint64_t fp)
{
    return [fp](const std::string &) { return fp; };
}

SpecCostFn
defaultCost()
{
    return [](const ExperimentSpec &s) { return specCost(s); };
}

ResultRow
sampleRow()
{
    ResultRow row;
    row.id = "paper/MOM/8thr/decoupled/OC/win64";
    row.workload = "paper";
    row.simd = SimdIsa::Mom;
    row.threads = 8;
    row.memModel = mem::MemModel::Decoupled;
    row.policy = cpu::FetchPolicy::OCount;
    row.variant = "win64";
    row.seed = 0xdeadbeefcafef00dull;
    row.run.cycles = 123456789012ull;
    row.run.committedEq = 987654321098ull;
    row.run.ipc = 1.0 / 3.0;                // not representable in %.6g
    row.run.eipc = 0.1;
    row.run.l1HitRate = 0.98431529999999997;
    row.run.icacheHitRate = 1e-30;
    row.run.l1AvgLatency = 12345.678901234567;
    row.headline = 2.7182818284590452;
    row.run.mispredicts = 424242;
    row.run.condBranches = 8888888;
    row.run.completions = 8;
    row.run.hitCycleLimit = true;
    row.run.simKcps = 1234.5678901234567;   // schema v4 self-measurement
    row.run.wallMs = 1.0 / 7.0;
    row.wallMs = 555.0;                     // never serialized
    return row;
}

void
expectRowsBitIdentical(const ResultRow &a, const ResultRow &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.simd, b.simd);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.memModel, b.memModel);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.committedEq, b.run.committedEq);
    // EXPECT_EQ on doubles is exact ==; %.17g must round-trip bits.
    EXPECT_EQ(a.run.ipc, b.run.ipc);
    EXPECT_EQ(a.run.eipc, b.run.eipc);
    EXPECT_EQ(a.headline, b.headline);
    EXPECT_EQ(a.run.l1HitRate, b.run.l1HitRate);
    EXPECT_EQ(a.run.icacheHitRate, b.run.icacheHitRate);
    EXPECT_EQ(a.run.l1AvgLatency, b.run.l1AvgLatency);
    EXPECT_EQ(a.run.mispredicts, b.run.mispredicts);
    EXPECT_EQ(a.run.condBranches, b.run.condBranches);
    EXPECT_EQ(a.run.completions, b.run.completions);
    EXPECT_EQ(a.run.hitCycleLimit, b.run.hitCycleLimit);
    EXPECT_EQ(a.run.simKcps, b.run.simKcps);
    EXPECT_EQ(a.run.wallMs, b.run.wallMs);
}

// ---------------------------------------------------------------------------
// Serialize / parse round-trip
// ---------------------------------------------------------------------------

/** @p row as the one writer renders it, timing included. */
std::string
rowLine(const ResultRow &row)
{
    std::string out;
    appendResultRow(out, row, true);
    return out;
}

/** A row line turned into a store line: a "key" in front. */
std::string
keyed(const std::string &line)
{
    return "{\"key\":\"k\"," + line.substr(1);
}

/** Read one store line as ResultStore does: the strict JSON parser,
 *  then readStoreLine. */
bool
readLine(const std::string &line, ResultRow &out)
{
    svc::JsonValue doc;
    std::string error, key;
    return svc::parseJson(line, doc, error) &&
           readStoreLine(doc, key, out);
}


TEST(ResultRowSerialization, RoundTripsEveryFieldExactly)
{
    ResultRow row = sampleRow();
    std::string line;
    appendStoreLine(line, "k", row, true);
    ASSERT_EQ(line, keyed(rowLine(row)));
    ResultRow back;
    ASSERT_TRUE(readLine(line, back)) << line;
    expectRowsBitIdentical(row, back);

    // Round-trip is a fixed point: serializing the parse reproduces
    // the identical line.
    EXPECT_EQ(keyed(rowLine(back)), line);
}

TEST(ResultRowSerialization, FloatsAreFiniteDecimalText)
{
    std::string line = rowLine(sampleRow());
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("inf"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ResultRowSerialization, EscapedStringsSurvive)
{
    ResultRow row = sampleRow();
    row.id = "we\"ird,id";
    row.workload = "mix\"quote";
    row.variant = "line\nbreak\tand\\slash";
    ResultRow back;
    ASSERT_TRUE(readLine(keyed(rowLine(row)), back));
    EXPECT_EQ(back.id, row.id);
    EXPECT_EQ(back.workload, row.workload);
    EXPECT_EQ(back.variant, row.variant);
}

/**
 * The reference escape: a backslash before `"` and `\`, newline as
 * \n, and every other control character as printf's \u%04x.
 */
std::string
printfEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += std::string("\\") + c;
        else if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strfmt("\\u%04x", c);
        else
            out += c;
    }
    return out;
}

/**
 * The reference writer: the row format as printf renders it (strfmt
 * with %.17g, %d and %llu, strings through printfEscape). Stores,
 * fabric row messages and goldens hold these bytes, so the one-pass
 * std::to_chars writer must reproduce them exactly.
 */
std::string
printfRow(const ResultRow &r)
{
    auto exact = [](double v) { return strfmt("%.17g", v); };
    auto u64 = [](uint64_t v) {
        return strfmt("%llu", static_cast<unsigned long long>(v));
    };
    std::string out = "{";
    out += strfmt("\"schema\":%d,", kResultSchemaVersion);
    out += "\"id\":\"" + printfEscape(r.id) + "\",";
    out += "\"workload\":\"" + printfEscape(r.workload) + "\",";
    out += strfmt("\"isa\":\"%s\",\"threads\":%d,", isa::toString(r.simd),
                  r.threads);
    out += strfmt("\"mem\":\"%s\",\"policy\":\"%s\",",
                  mem::toString(r.memModel), cpu::toString(r.policy));
    out += "\"variant\":\"" + printfEscape(r.variant) + "\",";
    out += "\"seed\":" + u64(r.seed) + ",\"cycles\":" + u64(r.run.cycles) +
           ",\"committed_eq\":" + u64(r.run.committedEq) + ",";
    out += "\"ipc\":" + exact(r.run.ipc) + ",\"eipc\":" + exact(r.run.eipc) +
           ",\"headline\":" + exact(r.headline) +
           ",\"l1_hit_rate\":" + exact(r.run.l1HitRate) +
           ",\"icache_hit_rate\":" + exact(r.run.icacheHitRate) +
           ",\"l1_avg_latency\":" + exact(r.run.l1AvgLatency) + ",";
    out += "\"mispredicts\":" + u64(r.run.mispredicts) +
           ",\"cond_branches\":" + u64(r.run.condBranches) +
           strfmt(",\"completions\":%d,", r.run.completions);
    out += strfmt("\"hit_cycle_limit\":%s,",
                  r.run.hitCycleLimit ? "true" : "false");
    out += "\"sim_kcps\":" + exact(r.run.simKcps) +
           ",\"wall_ms\":" + exact(r.run.wallMs);
    return out + "}";
}

/** The writer, with and without timing, matches printfRow. */
void
expectPrintfBytes(const ResultRow &row)
{
    ASSERT_EQ(rowLine(row), printfRow(row));
    ResultRow zeroed = row;
    zeroed.run.simKcps = 0.0;
    zeroed.run.wallMs = 0.0;
    std::string appended = "[";
    appendResultRow(appended, row, false);
    ASSERT_EQ(appended, "[" + printfRow(zeroed));
}

TEST(ResultRowSerialization, MatchesPrintfOnEdgeDoubles)
{
    const double edges[] = {
        0.0, 5e-324, DBL_MIN, DBL_MAX, 0.1, 1.0 / 3.0, 1e-5, 1e16, 1e17,
        9007199254740993.0,                     // 2^53+1, rounds to 2^53
        std::nextafter(9007199254740992.0, 1e300), // 2^53+2
        123456789.125,
    };
    for (double e : edges) {
        for (double v : { e, -e }) {
            SCOPED_TRACE(strfmt("%.17g", v));
            ResultRow row = sampleRow();
            row.run.ipc = row.run.eipc = row.headline = v;
            row.run.l1HitRate = row.run.icacheHitRate = v;
            row.run.l1AvgLatency = row.run.simKcps = row.run.wallMs = v;
            expectPrintfBytes(row);
            // Each field also stands alone next to ordinary values.
            row = sampleRow();
            row.run.l1AvgLatency = v;
            row.run.wallMs = v;
            expectPrintfBytes(row);
        }
    }
    ResultRow extremes = sampleRow();
    extremes.seed = UINT64_MAX;
    extremes.run.cycles = 0;
    extremes.run.committedEq = (1ull << 53) + 1;
    extremes.threads = INT_MIN;
    extremes.run.completions = INT_MAX;
    extremes.run.hitCycleLimit = false;
    expectPrintfBytes(extremes);
}

TEST(ResultRowSerialization, MatchesPrintfOnRandomRows)
{
    Rng rng(0x5eed5eed);
    auto finite = [&rng]() {
        for (;;) {
            uint64_t bits = rng.next();
            double v;
            std::memcpy(&v, &bits, sizeof(v));
            if (std::isfinite(v))
                return v;
        }
    };
    auto i32 = [&rng]() {
        return static_cast<int>(static_cast<uint32_t>(rng.next()));
    };
    // Any magnitude, so every digit count from 1 to 20 comes up.
    auto u64 = [&rng]() {
        unsigned shift = rng.next() & 63;
        return rng.next() >> shift;
    };
    for (int i = 0; i < 100000; ++i) {
        ResultRow row = sampleRow();
        row.seed = i == 0 ? UINT64_MAX : rng.next();
        row.threads = i32();
        row.run.cycles = u64();
        row.run.committedEq = u64();
        row.run.mispredicts = u64();
        row.run.condBranches = u64();
        row.run.completions = i32();
        row.run.hitCycleLimit = rng.next() & 1;
        row.run.ipc = finite();
        row.run.eipc = finite();
        row.headline = finite();
        row.run.l1HitRate = finite();
        row.run.icacheHitRate = finite();
        row.run.l1AvgLatency = finite();
        row.run.simKcps = finite();
        row.run.wallMs = finite();
        ASSERT_EQ(rowLine(row), printfRow(row)) << "row " << i;
    }
}

TEST(ResultRowSerialization, MatchesPrintfOnEscapedStrings)
{
    ResultRow row = sampleRow();
    row.id = "quote\"back\\slash";
    row.workload = "new\nline\x01" "ctl\x1f";
    row.variant = "\"\\\n\x01\tend";
    expectPrintfBytes(row);
    row.id = "";
    row.variant = "plain caf\xc3\xa9";   // bytes >= 0x80 pass through
    expectPrintfBytes(row);
}

TEST(ResultRowSerialization, RejectsMissingFieldsAndGarbage)
{
    // Every input carries a valid key, so each fails for its own
    // reason.
    ResultRow out;
    EXPECT_FALSE(readLine("", out));
    EXPECT_FALSE(readLine("{\"key\":\"k\"}", out));
    EXPECT_FALSE(readLine("{\"key\":\"k\", not json at all}", out));

    std::string line = keyed(rowLine(sampleRow()));
    ASSERT_TRUE(readLine(line, out));
    // Truncation loses the tail fields.
    EXPECT_FALSE(readLine(line.substr(0, line.size() / 2), out));
    // Dropping one required field must fail, not default-fill.
    std::string noSeed = line;
    size_t pos = noSeed.find("\"seed\":");
    ASSERT_NE(pos, std::string::npos);
    size_t end = noSeed.find(',', pos);
    noSeed.erase(pos, end - pos + 1);
    EXPECT_FALSE(readLine(noSeed, out));

    // One JSON object with each field once, nothing more: trailing
    // bytes, a repeated field and a non-JSON number token all reject.
    EXPECT_FALSE(readLine(line + "x", out));
    std::string twice = line;
    twice.insert(twice.size() - 1, ",\"threads\":8");
    EXPECT_FALSE(readLine(twice, out));
    std::string nanIpc = line;
    pos = nanIpc.find("\"ipc\":");
    ASSERT_NE(pos, std::string::npos);
    pos += 6;
    nanIpc.replace(pos, nanIpc.find(',', pos) - pos, "nan");
    EXPECT_FALSE(readLine(nanIpc, out));
}

TEST(ResultRowSerialization, RejectsForeignOrAbsentSchemaVersion)
{
    std::string line = keyed(rowLine(sampleRow()));
    ResultRow out;
    ASSERT_TRUE(readLine(line, out));

    std::string old = line;
    size_t pos = old.find("\"schema\":");
    ASSERT_NE(pos, std::string::npos);
    old.replace(pos, strfmt("\"schema\":%d", kResultSchemaVersion).size(),
                "\"schema\":1");
    EXPECT_FALSE(readLine(old, out));

    // Schema is a required field, not an optional check: a line with
    // no version at all must not parse as the current version.
    std::string stripped = line;
    size_t end = stripped.find(',', pos);
    ASSERT_NE(end, std::string::npos);
    stripped.erase(pos, end - pos + 1);
    EXPECT_FALSE(readLine(stripped, out));
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

ExperimentSpec
sampleSpec()
{
    SweepGrid grid;
    grid.isas({ SimdIsa::Mom }).threadCounts({ 8 });
    return grid.expand(7)[0];
}

TEST(ResultCacheKey, StableForIdenticalInputs)
{
    EXPECT_EQ(resultCacheKey(sampleSpec(), 0x1234),
              resultCacheKey(sampleSpec(), 0x1234));
}

TEST(ResultCacheKey, InvalidatedByWorkloadFingerprint)
{
    EXPECT_NE(resultCacheKey(sampleSpec(), 0x1234),
              resultCacheKey(sampleSpec(), 0x1235));
}

TEST(ResultCacheKey, InvalidatedByPerTaskSeed)
{
    // Rows record their seed, so a --seed 7 run must never replay rows
    // produced under a different base seed.
    SweepGrid grid;
    grid.isas({ SimdIsa::Mom }).threadCounts({ 8 });
    ExperimentSpec a = grid.expand(7)[0];
    ExperimentSpec b = grid.expand(8)[0];
    ASSERT_NE(a.seed, b.seed);
    EXPECT_NE(resultCacheKey(a, 1), resultCacheKey(b, 1));
}

TEST(ResultCacheKey, InvalidatedByRunLengthLimits)
{
    ExperimentSpec a = sampleSpec(), b = sampleSpec();
    b.maxCycles = a.maxCycles / 2;
    EXPECT_NE(resultCacheKey(a, 1), resultCacheKey(b, 1));
    ExperimentSpec c = sampleSpec();
    c.targetCompletions = 3;
    EXPECT_NE(resultCacheKey(a, 1), resultCacheKey(c, 1));
}

TEST(ResultCacheKey, InvalidatedByTweakParametersBehindSameLabel)
{
    // Editing a variant's tweak closure must invalidate cached rows
    // even when its label (and thus the canonical id) is unchanged.
    auto specWithWindow = [](int window) {
        ExperimentSpec s = sampleSpec();
        s.variant = "win";
        s.id = s.canonicalId();
        s.tweakCore = [window](cpu::CoreConfig &c) {
            c.windowPerThread = window;
        };
        return s;
    };
    ExperimentSpec a = specWithWindow(64), b = specWithWindow(16);
    ASSERT_EQ(a.id, b.id);
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    EXPECT_NE(resultCacheKey(a, 1), resultCacheKey(b, 1));

    ExperimentSpec c = sampleSpec();
    c.tweakMem = [](mem::MemConfig &m) { m.l1.numMshrs = 4; };
    EXPECT_NE(resultCacheKey(sampleSpec(), 1), resultCacheKey(c, 1));
}

TEST(ResultCacheKey, InvalidatedByWorkloadNameAndFingerprint)
{
    // The canonical id carries the workload name, so two mixes never
    // share a key even under a (hypothetically) colliding fingerprint.
    ExperimentSpec a = sampleSpec();
    ExperimentSpec b = a;
    b.workload = "mpeg2x8";
    b.id = b.canonicalId();
    EXPECT_NE(resultCacheKey(a, 1), resultCacheKey(b, 1));
}

TEST(ResultCacheKey, CarriesTheSchemaVersion)
{
    std::string key = resultCacheKey(sampleSpec(), 1);
    EXPECT_NE(key.find(strfmt("|v%d", kResultSchemaVersion)),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// ResultStore persistence
// ---------------------------------------------------------------------------

void
wipeStoreDir(const std::string &dir)
{
    std::remove((dir + "/" + ResultStore::kFileName).c_str());
}

std::string
readWhole(const std::string &path)
{
    std::string text;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

void
writeWhole(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

TEST(ResultStore, PersistsAcrossReopen)
{
    const std::string dir = "test_result_store.persist";
    wipeStoreDir(dir);

    ResultRow row = sampleRow();
    {
        ResultStore store;
        ASSERT_TRUE(store.openDir(dir));
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.lookup("k1"), nullptr);
        store.put("k1", row);
        EXPECT_EQ(store.size(), 1u);
    }
    ResultStore reopened;
    ASSERT_TRUE(reopened.openDir(dir));
    ASSERT_EQ(reopened.size(), 1u);
    const ResultRow *hit = reopened.lookup("k1");
    ASSERT_NE(hit, nullptr);
    expectRowsBitIdentical(row, *hit);
}

TEST(ResultStore, LastPutWinsAndTruncatedTailIsIgnored)
{
    const std::string dir = "test_result_store.tail";
    wipeStoreDir(dir);

    ResultRow a = sampleRow(), b = sampleRow();
    b.run.cycles = 1;
    {
        ResultStore store;
        ASSERT_TRUE(store.openDir(dir));
        store.put("k", a);
        store.put("k", b);      // appended twice; later line wins
    }
    // Simulate a writer that died mid-append.
    std::FILE *f =
        std::fopen((dir + "/" + ResultStore::kFileName).c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"key\":\"half", f);
    std::fclose(f);

    ResultStore reopened;
    ASSERT_TRUE(reopened.openDir(dir));
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.lookup("k")->run.cycles, 1u);
}

TEST(ResultStore, ForeignSchemaRowsAreSkippedNotFatal)
{
    // A schema bump must turn old rows into misses, not make the
    // store unloadable: same dir keeps working across versions.
    const std::string dir = "test_result_store.schema";
    wipeStoreDir(dir);
    {
        ResultStore store;
        ASSERT_TRUE(store.openDir(dir));
        store.put("knew", sampleRow());
    }
    // Splice in a v1-era row (mid-file, before the current-schema row).
    const std::string file = dir + "/" + ResultStore::kFileName;
    writeWhole(file, "{\"key\":\"kold\",\"schema\":1,\"id\":\"x\"}\n" +
                         readWhole(file));
    ResultStore reopened;
    ASSERT_TRUE(reopened.openDir(dir));
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.lookup("kold"), nullptr);
    EXPECT_NE(reopened.lookup("knew"), nullptr);
}

TEST(ResultStore, UnknownFieldsOfEveryJsonTypeAreIgnored)
{
    // Forward compatibility within a schema version: a current-schema
    // line may carry fields this build does not know, of any type.
    const std::string dir = "test_result_store.unknown";
    wipeStoreDir(dir);
    const ResultRow row = sampleRow();
    const std::string line = rowLine(row);
    const char *extras[] = {
        "\"u_string\":\"x\"", "\"u_number\":-1.5e3",
        "\"u_bool\":true",     "\"u_null\":null",
        "\"u_array\":[1,[\"x\"],{}]",
        "\"u_object\":{\"id\":\"not-this\",\"n\":{\"k\":[]}}",
    };
    std::string file;
    for (size_t k = 0; k < std::size(extras); ++k) {
        // First, so the row's own fields follow the unknown value.
        std::string withExtra = "{" + std::string(extras[k]) + "," +
                                line.substr(1);
        ResultRow back;
        ASSERT_TRUE(readLine(keyed(withExtra), back)) << withExtra;
        expectRowsBitIdentical(row, back);
        EXPECT_EQ(rowLine(back), line);
        file += strfmt("{\"key\":\"k%zu\",", k) + withExtra.substr(1) +
                "\n";
    }
    ResultStore store;
    ASSERT_TRUE(store.openDir(dir));    // creates the dir
    writeWhole(dir + "/" + ResultStore::kFileName, file);
    ASSERT_TRUE(store.loadFile(dir + "/" + ResultStore::kFileName));
    ASSERT_EQ(store.size(), std::size(extras));
    for (size_t k = 0; k < std::size(extras); ++k) {
        const ResultRow *hit = store.lookup(strfmt("k%zu", k));
        ASSERT_NE(hit, nullptr) << k;
        expectRowsBitIdentical(row, *hit);
    }
}

TEST(ResultStore, CorruptLineBeforeTheLastFailsTheLoad)
{
    // Only the final line may be damaged (a writer that died
    // mid-append); a bad line anywhere before it is corruption, and
    // both openDir and loadFile refuse the store.
    const std::string dir = "test_result_store.corrupt";
    wipeStoreDir(dir);
    {
        ResultStore store;
        ASSERT_TRUE(store.openDir(dir));
        store.put("k1", sampleRow());
        store.put("k2", sampleRow());
    }
    const std::string file = dir + "/" + ResultStore::kFileName;
    const std::string good = readWhole(file);
    const size_t secondLine = good.find('\n') + 1;
    std::string noKey = rowLine(sampleRow()) + "\n";
    for (const std::string &bad :
         { std::string("garbage\n"), std::string("{\"key\":\"k3\"}\n"),
           noKey }) {
        writeWhole(file, good.substr(0, secondLine) + bad +
                             good.substr(secondLine));
        ResultStore reopened;
        EXPECT_FALSE(reopened.openDir(dir)) << bad;
        ResultStore merged;
        EXPECT_FALSE(merged.loadFile(file)) << bad;
    }
}

TEST(ResultStore, LoadFileMergesForeignStores)
{
    const std::string dirA = "test_result_store.mergeA";
    const std::string dirB = "test_result_store.mergeB";
    wipeStoreDir(dirA);
    wipeStoreDir(dirB);
    {
        ResultStore a, b;
        ASSERT_TRUE(a.openDir(dirA));
        ASSERT_TRUE(b.openDir(dirB));
        a.put("ka", sampleRow());
        b.put("kb", sampleRow());
    }
    ResultStore merged;     // in-memory: loadFile never adopts a path
    ASSERT_TRUE(merged.loadFile(dirA + "/" + ResultStore::kFileName));
    ASSERT_TRUE(merged.loadFile(dirB + "/" + ResultStore::kFileName));
    EXPECT_EQ(merged.size(), 2u);
    EXPECT_NE(merged.lookup("ka"), nullptr);
    EXPECT_NE(merged.lookup("kb"), nullptr);
    EXPECT_TRUE(merged.path().empty());
    EXPECT_FALSE(merged.loadFile("no/such/store.jsonl"));
}

TEST(ResultStore, ShortWriteStopsEveryStoreBoundToTheFile)
{
    // Two stores bound to one file, the second through a different
    // spelling of the directory. A write cut short by the file size
    // limit leaves a partial line at the end of the file; after it,
    // neither store may append (a whole line after the partial one
    // would put corruption mid-file, and loadFile refuses that), so
    // the file reloads with only its tail truncated.
    const std::string dir = "test_result_store.short";
    const std::string file = dir + "/" + ResultStore::kFileName;
    wipeStoreDir(dir);
    ResultStore a, b;
    ASSERT_TRUE(a.openDir(dir));
    ASSERT_TRUE(b.openDir("./" + dir));
    a.put("k1", sampleRow());
    b.put("k2", sampleRow());
    const std::string whole = readWhole(file);
    ASSERT_EQ(std::count(whole.begin(), whole.end(), '\n'), 2);

    // Let only 100 bytes of the next line fit. SIGXFSZ is ignored, so
    // the write returns short instead of killing the process.
    struct rlimit saved {};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit limited = saved;
    limited.rlim_cur = static_cast<rlim_t>(whole.size() + 100);
    void (*previous)(int) = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
    a.put("k3", sampleRow());
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, previous);

    const std::string cut = readWhole(file);
    ASSERT_EQ(cut.size(), whole.size() + 100);
    b.put("k4", sampleRow());
    a.put("k5", sampleRow());
    EXPECT_EQ(readWhole(file), cut) << "a store appended after a short write";
    // Rows still land in memory.
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(b.size(), 2u);

    ResultStore reloaded;
    ASSERT_TRUE(reloaded.loadFile(file));
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_NE(reloaded.lookup("k1"), nullptr);
    EXPECT_NE(reloaded.lookup("k2"), nullptr);
}

TEST(ResultStore, WipedAndReboundDirectoryAppendsToTheNewFile)
{
    // The appender holds its descriptor while a store is bound. A
    // directory wiped and bound again must get its rows in the new
    // file, both from the new store and from one that stayed bound.
    const std::string dir = "test_result_store.rebind";
    const std::string file = dir + "/" + ResultStore::kFileName;
    wipeStoreDir(dir);
    ResultStore live;
    ASSERT_TRUE(live.openDir(dir));
    live.put("old", sampleRow());
    ASSERT_EQ(std::remove(file.c_str()), 0);
    ASSERT_EQ(::rmdir(dir.c_str()), 0);
    {
        ResultStore fresh;
        ASSERT_TRUE(fresh.openDir(dir));    // recreates the directory
        EXPECT_EQ(fresh.size(), 0u);
        fresh.put("new", sampleRow());
    }
    live.put("live", sampleRow());
    {
        ResultStore reloaded;
        ASSERT_TRUE(reloaded.loadFile(file));
        EXPECT_EQ(reloaded.size(), 2u);
        EXPECT_EQ(reloaded.lookup("old"), nullptr);
        EXPECT_NE(reloaded.lookup("new"), nullptr);
        EXPECT_NE(reloaded.lookup("live"), nullptr);
    }

    // And once no store is bound any more: wipe, bind, put.
    ASSERT_TRUE(live.openDir(dir + ".elsewhere"));
    ASSERT_EQ(std::remove(file.c_str()), 0);
    ASSERT_EQ(::rmdir(dir.c_str()), 0);
    ResultStore again;
    ASSERT_TRUE(again.openDir(dir));
    again.put("again", sampleRow());
    ResultStore reloaded;
    ASSERT_TRUE(reloaded.loadFile(file));
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_NE(reloaded.lookup("again"), nullptr);
}

// ---------------------------------------------------------------------------
// Sweep planning: shard dealing and cache resolution
// ---------------------------------------------------------------------------

SweepGrid
planGrid()
{
    SweepGrid grid;
    grid.isas({ SimdIsa::Mmx, SimdIsa::Mom })
        .threadCounts({ 1, 2, 4, 8 });
    return grid;
}

TEST(PlanSweep, ShardsPartitionTheSweepDeterministically)
{
    auto specs = planGrid().expand(3);
    std::set<std::string> covered;
    for (int shard = 0; shard < 3; ++shard) {
        RunPlan plan = planSweep(planGrid().expand(3), constFp(9),
                                 defaultCost(), nullptr, shard, 3);
        ASSERT_EQ(plan.points.size(), specs.size());
        RunPlan again = planSweep(planGrid().expand(3), constFp(9),
                                  defaultCost(), nullptr, shard, 3);
        for (size_t i = 0; i < plan.points.size(); ++i) {
            // Deterministic: same inputs, same dealing, in every
            // process regardless of which shard it will execute.
            EXPECT_EQ(plan.points[i].shard, again.points[i].shard);
            EXPECT_EQ(plan.points[i].spec.id, specs[i].id);
            if (plan.points[i].shard == shard)
                covered.insert(plan.points[i].spec.id);
        }
        EXPECT_GT(plan.mineCount(), 0u) << "empty shard " << shard;
        EXPECT_EQ(plan.simulateCount(), plan.mineCount());
    }
    // Union over shards = the whole sweep, each point exactly once.
    EXPECT_EQ(covered.size(), specs.size());
}

TEST(PlanSweep, CostWeightingSeparatesExpensivePoints)
{
    // Two 8-thread points (the expensive ones): LPT dealing must not
    // pile both onto one shard.
    SweepGrid grid;
    grid.isas({ SimdIsa::Mmx, SimdIsa::Mom }).threadCounts({ 1, 8 });
    RunPlan plan = planSweep(grid.expand(0), constFp(1),
                             defaultCost(), nullptr, 0, 2);
    ASSERT_EQ(plan.points.size(), 4u);
    int shardOf8[2] = { -1, -1 };
    int n8 = 0;
    for (const PlannedPoint &p : plan.points) {
        EXPECT_GT(p.cost, 0.0);
        if (p.spec.threads == 8)
            shardOf8[n8++] = p.shard;
    }
    ASSERT_EQ(n8, 2);
    EXPECT_NE(shardOf8[0], shardOf8[1]);
}

TEST(PlanSweep, EightThreadPointsCostAboutFourTimesOneThread)
{
    ExperimentSpec one = sampleSpec(), eight = sampleSpec();
    one.threads = 1;
    eight.threads = 8;
    EXPECT_NEAR(specCost(eight) / specCost(one), 4.0, 1e-9);
    // Real memory costs more than the perfect hierarchy.
    ExperimentSpec perfect = one;
    perfect.memModel = mem::MemModel::Perfect;
    EXPECT_GT(specCost(one), specCost(perfect));
}

TEST(PlanSweep, ResolvesCachedPointsFromTheStore)
{
    auto specs = planGrid().expand(3);
    ResultStore store;      // in-memory
    ResultRow row = sampleRow();
    store.put(resultCacheKey(specs[2], 77), row);

    RunPlan plan = planSweep(planGrid().expand(3), constFp(77),
                             defaultCost(), &store);
    ASSERT_EQ(plan.points.size(), specs.size());
    EXPECT_TRUE(plan.points[2].cached);
    expectRowsBitIdentical(plan.points[2].row, row);
    EXPECT_EQ(plan.cachedMineCount(), 1u);
    EXPECT_EQ(plan.simulateCount(), specs.size() - 1);

    // A different fingerprint must miss everywhere.
    RunPlan cold = planSweep(planGrid().expand(3), constFp(78),
                             defaultCost(), &store);
    EXPECT_EQ(cold.cachedMineCount(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: warm cache simulates nothing; shard+merge == unsharded
// ---------------------------------------------------------------------------

workloads::WorkloadRepo &
tinyRepo()
{
    static workloads::WorkloadRepo repo(workloads::WorkloadScale::Tiny);
    return repo;
}

SweepGrid
integrationGrid()
{
    // Two workloads on purpose: the warm-cache and shard-merge
    // contracts must hold per-workload across one multi-mix sweep.
    SweepGrid grid;
    grid.workloadSpecs({ "paper", "gsmx8" })
        .isas({ SimdIsa::Mmx, SimdIsa::Mom })
        .threadCounts({ 1, 2 })
        .policies({ cpu::FetchPolicy::RoundRobin,
                    cpu::FetchPolicy::ICount });
    return grid;
}

TEST(RunPlanIntegration, WorkloadFingerprintIsNonZero)
{
    EXPECT_NE(tinyRepo().fingerprintOf("paper"), 0u);
}

TEST(RunPlanIntegration, DistinctSpecsGetDistinctFingerprintsAndRows)
{
    // Acceptance (a): two workload specs in one grid key with
    // per-workload-distinct fingerprints and deliver per-workload rows.
    workloads::WorkloadRepo &repo = tinyRepo();
    EXPECT_NE(repo.fingerprintOf("paper"), repo.fingerprintOf("gsmx8"));

    SweepGrid grid;
    grid.workloadSpecs({ "paper", "gsmx8" });
    RunPlan plan = planSweep(grid.expand(2), repo);
    ASSERT_EQ(plan.points.size(), 2u);
    EXPECT_NE(plan.points[0].key, plan.points[1].key);

    PointScheduler sched(PointScheduler::Config { 2, 0 });
    ExperimentRunner runner(repo, sched);
    ResultSink sink = runner.run(plan);
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.rows()[0].workload, "paper");
    EXPECT_EQ(sink.rows()[1].workload, "gsmx8");
    EXPECT_GT(sink.rows()[0].run.cycles, 0u);
    EXPECT_GT(sink.rows()[1].run.cycles, 0u);
    // The mixes really differ: distinct dynamic work.
    EXPECT_NE(sink.rows()[0].run.committedEq,
              sink.rows()[1].run.committedEq);
    EXPECT_EQ(sink.filtered("gsmx8").size(), 1u);
    EXPECT_EQ(sink.filtered("paper").size(), 1u);
    EXPECT_EQ(sink.filtered("nope").size(), 0u);
}

TEST(RunPlanIntegration, ScaledMixCostsMoreThanThePaperMix)
{
    // specCost weights points by workload size: paperx2 has twice the
    // programs, so its points deal ~2x the cost.
    SweepGrid grid;
    grid.workloadSpecs({ "paper", "paperx2" });
    RunPlan plan = planSweep(grid.expand(0), tinyRepo());
    ASSERT_EQ(plan.points.size(), 2u);
    EXPECT_NEAR(plan.points[1].cost / plan.points[0].cost, 2.0, 1e-9);
}

TEST(RunPlanIntegration, WarmCacheRerunSimulatesZeroPoints)
{
    const std::string dir = "test_result_store.warm";
    wipeStoreDir(dir);

    PointScheduler sched(PointScheduler::Config { 2, 0 });
    ExperimentRunner runner(tinyRepo(), sched);

    ResultStore store;
    ASSERT_TRUE(store.openDir(dir));
    RunPlan cold = planSweep(integrationGrid().expand(11), tinyRepo(),
                             &store);
    EXPECT_EQ(cold.simulateCount(), cold.points.size());
    ResultSink first = runner.run(cold, &store);

    RunPlan warm = planSweep(integrationGrid().expand(11), tinyRepo(),
                             &store);
    EXPECT_EQ(warm.simulateCount(), 0u);
    EXPECT_EQ(warm.cachedMineCount(), warm.points.size());
    ResultSink second = runner.run(warm, nullptr);

    EXPECT_EQ(first.toCsv(), second.toCsv());
    EXPECT_EQ(first.toJson(), second.toJson());
}

// A freshly simulated row and a cached replay agree on every
// simulation-result column but carry their own runs' self-measurement,
// which this strips.
using testutil::stripSelfMeasurement;

TEST(RunPlanIntegration, ShardedStoresMergeToUnshardedOutput)
{
    PointScheduler sched(PointScheduler::Config { 2, 0 });
    ExperimentRunner runner(tinyRepo(), sched);

    // Reference: the unsharded sweep, no caching anywhere.
    ResultSink reference = runner.run(
        planSweep(integrationGrid().expand(5), tinyRepo(), nullptr));

    // Three shard "processes", each with its own store directory.
    std::vector<std::string> storeFiles;
    for (int shard = 0; shard < 3; ++shard) {
        std::string dir =
            strfmt("test_result_store.shard%d", shard);
        wipeStoreDir(dir);
        ResultStore store;
        ASSERT_TRUE(store.openDir(dir));
        RunPlan plan = planSweep(integrationGrid().expand(5), tinyRepo(),
                                 &store, shard, 3);
        ResultSink slice = runner.run(plan, &store);
        EXPECT_EQ(slice.size(), plan.mineCount());
        storeFiles.push_back(store.path());
    }

    // The merge "process": every point is a cache hit, nothing runs.
    ResultStore merged;
    for (const std::string &file : storeFiles)
        ASSERT_TRUE(merged.loadFile(file));
    RunPlan mergePlan = planSweep(integrationGrid().expand(5), tinyRepo(),
                                  &merged);
    EXPECT_EQ(mergePlan.simulateCount(), 0u);
    ResultSink recombined = runner.run(mergePlan, nullptr);

    // Byte-identical modulo the self-measurement tail columns (the
    // recombined rows replay the shard runs' wall clocks, the
    // reference rows carry their own).
    EXPECT_EQ(stripSelfMeasurement(reference.toCsv()),
              stripSelfMeasurement(recombined.toCsv()));
    ASSERT_EQ(reference.size(), recombined.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference.rows()[i].id, recombined.rows()[i].id);
        EXPECT_EQ(reference.rows()[i].run.cycles,
                  recombined.rows()[i].run.cycles);
        EXPECT_EQ(reference.rows()[i].headline,
                  recombined.rows()[i].headline);
    }
}

TEST(RunPlanIntegration, JoinedRowsAppendOncePerSharedStore)
{
    // Two requests plan one sweep against a shared store and a third
    // against its own, then all run at once: whichever simulates a
    // point, the others get its row as a join or a row-cache replay.
    // The shared file must hold each key once; the private store must
    // still receive every row it was handed.
    const std::string sharedDir = "test_result_store.shared";
    const std::string privateDir = "test_result_store.private";
    wipeStoreDir(sharedDir);
    wipeStoreDir(privateDir);
    ResultStore shared, priv;
    ASSERT_TRUE(shared.openDir(sharedDir));
    ASSERT_TRUE(priv.openDir(privateDir));

    PointScheduler sched(PointScheduler::Config { 1, 64 });
    const std::vector<ExperimentSpec> specs = integrationGrid().expand(3);
    const RunPlan a = planSweep(specs, tinyRepo(), &shared);
    const RunPlan b = planSweep(specs, tinyRepo(), &shared);
    const RunPlan c = planSweep(specs, tinyRepo(), &priv);
    ASSERT_EQ(a.simulateCount(), specs.size());
    std::vector<std::thread> requests;
    for (auto [plan, store] : { std::make_pair(&a, &shared),
                                std::make_pair(&b, &shared),
                                std::make_pair(&c, &priv) }) {
        requests.emplace_back([&sched, plan = plan, store = store] {
            ExperimentRunner(tinyRepo(), sched).run(*plan, store);
        });
    }
    for (std::thread &t : requests)
        t.join();

    // Every point ran once; the other two requests joined or replayed.
    const PointScheduler::Counters counters = sched.counters();
    EXPECT_EQ(counters.pointsSimulated, specs.size());
    EXPECT_EQ(counters.pointsDeduped + counters.memCacheHits,
              2 * specs.size());
    auto lines = [](const std::string &dir) {
        const std::string text =
            readWhole(dir + "/" + ResultStore::kFileName);
        return static_cast<size_t>(
            std::count(text.begin(), text.end(), '\n'));
    };
    EXPECT_EQ(lines(sharedDir), specs.size());
    EXPECT_EQ(lines(privateDir), specs.size());
    EXPECT_EQ(shared.size(), specs.size());
    EXPECT_EQ(priv.size(), specs.size());
}

} // namespace
} // namespace momsim::driver
