/**
 * @file
 * Tests for the service API boundary (src/svc/): the SimRequest wire
 * format round-trips and rejects unknown fields / foreign versions,
 * the bench registry is consistent, SimService::submit returns
 * structured errors on every path that used to exit(), and concurrent
 * submissions from N client threads are byte-identical to a serial
 * replay.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "svc/axis_parse.hh"
#include "svc/bench_registry.hh"
#include "svc/json.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{
namespace
{

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(Json, ParsesNestedDocuments)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson("{\"a\":[1,2,3],\"b\":{\"c\":\"x\"},"
                          "\"d\":true,\"e\":null,\"f\":-2.5}",
                          v, error))
        << error;
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.field("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    int n = 0;
    EXPECT_TRUE(a->items[1].toInt(n));
    EXPECT_EQ(n, 2);
    const JsonValue *b = v.field("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isObject());
    EXPECT_EQ(b->field("c")->text, "x");
    EXPECT_TRUE(v.field("d")->boolean);
    EXPECT_TRUE(v.field("e")->isNull());
    double d = 0;
    EXPECT_TRUE(v.field("f")->toDouble(d));
    EXPECT_DOUBLE_EQ(d, -2.5);
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    for (const char *bad :
         { "", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x",
           "{'a':1}", "{\"a\":1 \"b\":2}", "nope",
           "{\"a\":1,\"a\":2}", /* duplicate key */
           // Strict JSON number grammar: these parse under strtod but
           // are not JSON numbers.
           "{\"a\":+5}", "{\"a\":5.}", "{\"a\":.5}", "{\"a\":1e}",
           "{\"a\":01}", "{\"a\":-}" }) {
        error.clear();
        EXPECT_FALSE(parseJson(bad, v, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, NumbersKeepExact64BitValues)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson("{\"big\":18446744073709551615}", v, error));
    uint64_t u = 0;
    EXPECT_TRUE(v.field("big")->toU64(u));
    EXPECT_EQ(u, 18446744073709551615ull);

    // 2^64 is grammatically a number but out of uint64 range: toU64
    // must reject, not clamp (a clamped cycle cap would cache rows
    // under a limit the client never requested).
    ASSERT_TRUE(parseJson("{\"big\":18446744073709551616}", v, error));
    EXPECT_FALSE(v.field("big")->toU64(u));
    SimRequest req;
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"maxCycles\":18446744073709551616}", req,
        error));
}

TEST(Json, DecodesEveryStringEscape)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(R"(["\" \\ \/ \b \f \n \r \t \u00e9"])", v,
                          error))
        << error;
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.items.size(), 1u);
    EXPECT_EQ(v.items[0].text, "\" \\ / \b \f \n \r \t \xe9");

    // The exported literal reader is the same grammar, and it reports
    // where the literal ended.
    const std::string text = R"(x"a\u0041\bz" tail)";
    size_t pos = 1;
    std::string out;
    ASSERT_TRUE(parseJsonString(text, pos, out));
    EXPECT_EQ(out, "aA\bz");
    EXPECT_EQ(text.substr(pos), " tail");
    pos = 0;
    EXPECT_FALSE(parseJsonString("\"unterminated", pos, out));
    pos = 0;
    EXPECT_FALSE(parseJsonString("\"bad \\q escape\"", pos, out));
}

/** Structural equality of two parsed documents, every member. */
bool
sameJson(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean || a.text != b.text ||
        a.items.size() != b.items.size() ||
        a.fields.size() != b.fields.size())
        return false;
    for (size_t k = 0; k < a.items.size(); ++k) {
        if (!sameJson(a.items[k], b.items[k]))
            return false;
    }
    for (size_t k = 0; k < a.fields.size(); ++k) {
        if (a.fields[k].first != b.fields[k].first ||
            !sameJson(a.fields[k].second, b.fields[k].second))
            return false;
    }
    return true;
}

TEST(Json, ReusedValueMatchesAFreshParse)
{
    // One value parsed into line after line (the result store's load
    // loop) must hold exactly what a fresh parse gives, whatever shape
    // it held before, failed parses included.
    const char *docs[] = {
        R"({"a":[1,{"b":"x"}],"c":"a longer string value","d":true})",
        R"({"c":3})",
        R"([null,"s",[],{}])",
        R"({"a":{"b":[1,2,3]},"e":false})",
        R"("just a string")",
        R"({"a":[1,{"b":"x"}],"c":)",
        R"({})",
        R"({"a":[1,{"b":"x"}],"c":"a longer string value","d":true})",
        "-2.5e3",
    };
    JsonValue reused;
    std::string error;
    for (const char *text : docs) {
        JsonValue fresh;
        std::string freshError;
        const bool ok = parseJson(text, fresh, freshError);
        EXPECT_EQ(parseJson(text, reused, error), ok) << text;
        if (ok)
            EXPECT_TRUE(sameJson(reused, fresh)) << text;
    }
}

// ---------------------------------------------------------------------
// SimRequest wire format
// ---------------------------------------------------------------------

TEST(SimRequest, JsonRoundTrips)
{
    SimRequest req;
    req.id = "client-7";
    req.bench = "fig6";
    req.workloads = { "paper", "gsmx8" };
    req.quick = true;
    req.maxCycles = 123456789012345ull;
    req.seed = 42;
    req.shardIndex = 2;
    req.shardCount = 3;
    req.cacheDir = "/tmp/momsim \"cache\"";
    req.points = { "paper/mmx/t1/perfect/rr", "paper/mom/t8/decoupled/icount" };
    req.stream = true;

    SimRequest back;
    std::string error;
    ASSERT_TRUE(SimRequest::fromJson(req.toJson(), back, error))
        << error;
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.bench, req.bench);
    EXPECT_EQ(back.workloads, req.workloads);
    EXPECT_EQ(back.quick, req.quick);
    EXPECT_EQ(back.maxCycles, req.maxCycles);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.shardIndex, req.shardIndex);
    EXPECT_EQ(back.shardCount, req.shardCount);
    EXPECT_EQ(back.cacheDir, req.cacheDir);
    EXPECT_EQ(back.points, req.points);
    EXPECT_EQ(back.stream, req.stream);
    // Re-serialization is stable (fixed field order) and current.
    EXPECT_EQ(back.toJson(), req.toJson());
    EXPECT_EQ(req.toJson().rfind(strfmt("{\"schemaVersion\":%d,",
                                        kSimRequestSchemaVersion),
                                 0),
              0u);
    // Unset, points and stream stay off the wire.
    EXPECT_EQ(SimRequest().toJson().find("points"), std::string::npos);
    EXPECT_EQ(SimRequest().toJson().find("stream"), std::string::npos);

    // The axes variant round-trips too.
    SimRequest axes;
    axes.isas = { "mmx", "mom" };
    axes.threads = { 1, 4, 8 };
    axes.memModels = { "perfect", "decoupled" };
    axes.policies = { "rr", "icount" };
    ASSERT_TRUE(SimRequest::fromJson(axes.toJson(), back, error))
        << error;
    EXPECT_EQ(back.isas, axes.isas);
    EXPECT_EQ(back.threads, axes.threads);
    EXPECT_EQ(back.memModels, axes.memModels);
    EXPECT_EQ(back.policies, axes.policies);
}

TEST(SimRequest, RejectsUnknownFieldsAndForeignVersions)
{
    SimRequest out;
    std::string error;

    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"bogus\":3}", out, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);

    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":99,\"bench\":\"fig6\"}", out, error));
    EXPECT_NE(error.find("schemaVersion 99"), std::string::npos);

    EXPECT_FALSE(
        SimRequest::fromJson("{\"bench\":\"fig6\"}", out, error));
    EXPECT_NE(error.find("schemaVersion"), std::string::npos);

    // Wrong types reject instead of coercing.
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"quick\":\"yes\"}", out, error));
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"threads\":[\"two\"]}", out, error));
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"maxCycles\":-5}", out, error));
    EXPECT_FALSE(SimRequest::fromJson("[]", out, error));
    EXPECT_FALSE(SimRequest::fromJson("not json", out, error));
}

TEST(SimRequest, VersionOneKeepsItsRetiredBatchKnob)
{
    SimRequest out;
    std::string error;
    const std::string v1 = "{\"schemaVersion\":1,\"id\":\"b\","
                           "\"bench\":\"fig6\",\"quick\":true";

    // Accepted and ignored: the same request as without it.
    ASSERT_TRUE(SimRequest::fromJson(v1 + ",\"batch\":3}", out, error))
        << error;
    SimRequest plain;
    ASSERT_TRUE(SimRequest::fromJson(v1 + "}", plain, error)) << error;
    EXPECT_EQ(out.toJson(), plain.toJson());

    // Below 1 (or not an integer) it is still an error naming it,
    // which the transport answers as a bad_request.
    for (const char *bad : { "0", "-2", "\"3\"" }) {
        error.clear();
        EXPECT_FALSE(SimRequest::fromJson(
            v1 + ",\"batch\":" + bad + "}", out, error))
            << bad;
        EXPECT_NE(error.find("batch"), std::string::npos) << error;
    }
}

TEST(SimRequest, FieldsBelongToTheirVersion)
{
    SimRequest out;
    std::string error;
    // Version 2 dropped batch...
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":2,\"bench\":\"fig6\",\"batch\":1}", out,
        error));
    EXPECT_NE(error.find("unknown field \"batch\""), std::string::npos)
        << error;
    // ...and version 1 never had points or stream.
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"points\":[\"paper/mmx/t1/perfect/rr\"]}",
        out, error));
    EXPECT_NE(error.find("unknown field \"points\""), std::string::npos)
        << error;
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":1,\"stream\":true}", out, error));
    EXPECT_NE(error.find("unknown field \"stream\""), std::string::npos)
        << error;
    // Types are strict in version 2 as well.
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":2,\"stream\":1}", out, error));
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":2,\"points\":[1]}", out, error));
    EXPECT_FALSE(SimRequest::fromJson(
        "{\"schemaVersion\":0,\"bench\":\"fig6\"}", out, error));
}

// ---------------------------------------------------------------------
// Bench registry
// ---------------------------------------------------------------------

TEST(BenchRegistry, EntriesAreWellFormed)
{
    const std::vector<BenchDef> &regs = benchRegistry();
    ASSERT_GE(regs.size(), 13u);    // 12 figures/tables + explorer
    for (const BenchDef &def : regs) {
        EXPECT_FALSE(def.name.empty());
        EXPECT_FALSE(def.oldBinary.empty()) << def.name;
        EXPECT_FALSE(def.summary.empty()) << def.name;
        // Exactly one run shape.
        int shapes = (def.grid ? 1 : 0) + (def.runNoSweep ? 1 : 0) +
                     (def.runCustom ? 1 : 0);
        EXPECT_EQ(shapes, 1) << def.name;
        if (def.grid)
            EXPECT_TRUE(static_cast<bool>(def.print)) << def.name;
        // Names resolve back to themselves.
        const BenchDef *found = findBench(def.name);
        ASSERT_NE(found, nullptr) << def.name;
        EXPECT_EQ(found->name, def.name);
    }
    // No duplicate subcommand names.
    for (size_t i = 0; i < regs.size(); ++i)
        for (size_t j = i + 1; j < regs.size(); ++j)
            EXPECT_NE(regs[i].name, regs[j].name);
    EXPECT_EQ(findBench("nonsense"), nullptr);
}

TEST(BenchRegistry, GridFactoriesMatchThePaperShapes)
{
    driver::BenchOptions opts;
    // fig6: 2 isas x 4 threads x 1 mem x 4 policies, minus the 4
    // MMX+OCOUNT skips.
    const BenchDef *fig6 = findBench("fig6");
    ASSERT_NE(fig6, nullptr);
    EXPECT_EQ(fig6->grid(opts).expand().size(), 28u);
    // The mix bench pins six workloads by default but honours an
    // explicit selection.
    const BenchDef *mix = findBench("workload_mix");
    ASSERT_NE(mix, nullptr);
    EXPECT_TRUE(mix->grid(opts).hasExplicitWorkloads());
    EXPECT_EQ(mix->grid(opts).workloadList().size(), 6u);
    opts.workloads = { "paper" };
    EXPECT_FALSE(mix->grid(opts).hasExplicitWorkloads());
    // table2/table3 are the no-sweep entries.
    EXPECT_FALSE(findBench("table2")->hasSweep());
    EXPECT_FALSE(findBench("table3")->hasSweep());
}

// ---------------------------------------------------------------------
// SimService
// ---------------------------------------------------------------------

/** A tiny explicit-axes request that simulates in milliseconds. */
SimRequest
tinyRequest(const std::string &id)
{
    SimRequest req;
    req.id = id;
    req.isas = { "mmx", "mom" };
    req.threads = { 1, 2 };
    req.memModels = { "perfect" };
    req.quick = true;
    req.maxCycles = 100000;
    return req;
}

TEST(SimService, StructuredErrorsInsteadOfExit)
{
    SimService service;

    SimRequest req = tinyRequest("e1");
    req.workloads = { "nonsense" };
    SimResponse resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kUnknownWorkload);
    EXPECT_NE(resp.errorMessage.find("nonsense"), std::string::npos);
    EXPECT_EQ(resp.id, "e1");

    req = tinyRequest("e2");
    req.shardIndex = 5;
    req.shardCount = 3;
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadShard);

    req = SimRequest();
    req.id = "e3";
    req.bench = "nope";
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kUnknownBench);

    req = SimRequest();
    req.id = "e4";
    req.bench = "table2";   // no sweep stage: CLI-only
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kNoSweep);

    req = tinyRequest("e5");
    req.isas = { "avx512" };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadAxis);

    req = tinyRequest("e6");
    req.threads = { 16 };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadAxis);

    // Duplicate axis values would expand duplicate sweep points with
    // identical ids/seeds/cache keys; aliases of the same parsed value
    // ("mmx"/"MMX") collide too.
    req = tinyRequest("e6b");
    req.isas = { "mmx", "MMX" };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadAxis);
    EXPECT_NE(resp.errorMessage.find("duplicate"), std::string::npos);
    req = tinyRequest("e6c");
    req.threads = { 1, 2, 1 };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadAxis);
    req = tinyRequest("e6d");
    req.policies = { "rr", "round-robin" };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadAxis);

    req = tinyRequest("e7");
    req.bench = "fig6";     // bench + explicit axes: ambiguous
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadRequest);

    req = tinyRequest("e8");
    req.workloads = { "paper", "paper" };
    resp = service.submit(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, errc::kBadRequest);

    // Error responses serialize with the structured code.
    std::string json = resp.toJson();
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"bad_request\""), std::string::npos);
}

TEST(SimService, ExecutesExplicitAxesDeterministically)
{
    SimService service;
    SimResponse resp = service.submit(tinyRequest("r1"));
    ASSERT_TRUE(resp.ok) << resp.errorMessage;
    EXPECT_EQ(resp.id, "r1");
    EXPECT_EQ(resp.totalPoints, 4u);    // 2 isas x 2 threads
    EXPECT_EQ(resp.rows.size(), 4u);
    EXPECT_EQ(resp.simulatedPoints, 4u);
    EXPECT_EQ(resp.cachedPoints, 0u);
    for (const driver::ResultRow &row : resp.rows) {
        EXPECT_EQ(row.workload, "paper");
        EXPECT_GT(row.run.cycles, 0u);
    }
    // Same request again: identical rows (modulo self-measurement).
    SimResponse again = service.submit(tinyRequest("r1"));
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.toJson(false), resp.toJson(false));
    // The timed serialization differs only in the timing fields, which
    // toJson(false) zeroes; sanity-check the flag actually strips.
    EXPECT_NE(resp.toJson(false).find("\"wallMs\":0.000"),
              std::string::npos);
    // toJson(false) is the timed serialization of a zeroed copy: the
    // row writer zeroes sim_kcps and wall_ms itself, byte for byte.
    resp.rows.back().run.simKcps = 0.25;    // nonzero whatever the clock
    SimResponse zeroed = resp;
    zeroed.wallMs = 0.0;
    for (driver::ResultRow &row : zeroed.rows) {
        row.run.simKcps = 0.0;
        row.run.wallMs = 0.0;
    }
    EXPECT_EQ(resp.toJson(false), zeroed.toJson(true));
}

TEST(SimService, ConcurrentSubmitsMatchSerialByteForByte)
{
    // Four distinct requests executed serially, then the same four
    // submitted from four client threads at once. Responses must be
    // byte-identical (timing stripped) — the determinism contract of
    // the service boundary.
    std::vector<SimRequest> reqs;
    reqs.push_back(tinyRequest("c0"));
    reqs.push_back(tinyRequest("c1"));
    reqs[1].threads = { 1 };
    reqs.push_back(tinyRequest("c2"));
    reqs[2].isas = { "mom" };
    reqs.push_back(tinyRequest("c3"));
    reqs[3].policies = { "icount" };

    SimService service;
    std::vector<std::string> serial;
    for (const SimRequest &r : reqs)
        serial.push_back(service.submit(r).toJson(false));

    std::vector<std::string> concurrent(reqs.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < reqs.size(); ++i) {
        clients.emplace_back([&, i]() {
            concurrent[i] = service.submit(reqs[i]).toJson(false);
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(concurrent[i], serial[i]) << "request " << i;
}

TEST(SimService, BenchRequestRunsTheRegisteredGrid)
{
    SimService service;
    SimRequest req;
    req.id = "fig6-quick";
    req.bench = "fig6";
    req.quick = true;
    req.maxCycles = 100000;
    SimResponse resp = service.submit(req);
    ASSERT_TRUE(resp.ok) << resp.errorMessage;
    EXPECT_EQ(resp.bench, "fig6");
    EXPECT_EQ(resp.totalPoints, 28u);   // fig6's grid minus skips
    EXPECT_EQ(resp.rows.size(), 28u);
    // Row ids carry the canonical sweep coordinates.
    EXPECT_EQ(resp.rows[0].workload, "paper");
}

// ---------------------------------------------------------------------
// Axis token parsing (case-insensitive across all three axes)
// ---------------------------------------------------------------------

TEST(AxisParse, AcceptsEveryAxisTokenCaseInsensitively)
{
    isa::SimdIsa isa;
    for (const char *s : { "mmx", "Mmx", "MMX" }) {
        EXPECT_TRUE(parseIsaToken(s, isa)) << s;
        EXPECT_EQ(isa, isa::SimdIsa::Mmx) << s;
    }
    for (const char *s : { "mom", "MOM", "MoM" }) {
        EXPECT_TRUE(parseIsaToken(s, isa)) << s;
        EXPECT_EQ(isa, isa::SimdIsa::Mom) << s;
    }

    mem::MemModel mm;
    for (const char *s : { "perfect", "Perfect", "PERFECT" }) {
        EXPECT_TRUE(parseMemModelToken(s, mm)) << s;
        EXPECT_EQ(mm, mem::MemModel::Perfect) << s;
    }
    EXPECT_TRUE(parseMemModelToken("CONVENTIONAL", mm));
    EXPECT_EQ(mm, mem::MemModel::Conventional);
    EXPECT_TRUE(parseMemModelToken("Decoupled", mm));
    EXPECT_EQ(mm, mem::MemModel::Decoupled);

    cpu::FetchPolicy fp;
    for (const char *s : { "rr", "RR", "round-robin", "Round-Robin" }) {
        EXPECT_TRUE(parsePolicyToken(s, fp)) << s;
        EXPECT_EQ(fp, cpu::FetchPolicy::RoundRobin) << s;
    }
    for (const char *s : { "ic", "ICount", "icount" }) {
        EXPECT_TRUE(parsePolicyToken(s, fp)) << s;
        EXPECT_EQ(fp, cpu::FetchPolicy::ICount) << s;
    }
    for (const char *s : { "oc", "OCount", "OCOUNT" }) {
        EXPECT_TRUE(parsePolicyToken(s, fp)) << s;
        EXPECT_EQ(fp, cpu::FetchPolicy::OCount) << s;
    }
    for (const char *s : { "bl", "BL", "Balance", "balance" }) {
        EXPECT_TRUE(parsePolicyToken(s, fp)) << s;
        EXPECT_EQ(fp, cpu::FetchPolicy::Balance) << s;
    }
}

TEST(AxisParse, RejectsNonTokens)
{
    isa::SimdIsa isa;
    for (const char *s : { "", "mmx2", "sse", "m mx" })
        EXPECT_FALSE(parseIsaToken(s, isa)) << s;
    mem::MemModel mm;
    for (const char *s : { "", "perfectx", "fast" })
        EXPECT_FALSE(parseMemModelToken(s, mm)) << s;
    cpu::FetchPolicy fp;
    for (const char *s : { "", "round robin", "roundrobin", "rrx" })
        EXPECT_FALSE(parsePolicyToken(s, fp)) << s;
}

TEST(SimService, AxisSpellingsAreCaseInsensitive)
{
    // "Mmx"/"Round-Robin" used to reject while "mmx"/"rr" passed; all
    // spellings of one value must now name the same sweep point.
    SimService service;
    SimRequest req = tinyRequest("cs1");
    req.isas = { "MMX" };
    req.threads = { 1 };
    req.memModels = { "Perfect" };
    req.policies = { "Round-Robin" };
    SimResponse upper = service.submit(req);
    ASSERT_TRUE(upper.ok) << upper.errorMessage;

    req.id = "cs1";     // same id => byte-identical comparison works
    req.isas = { "mmx" };
    req.memModels = { "perfect" };
    req.policies = { "rr" };
    SimResponse lower = service.submit(req);
    ASSERT_TRUE(lower.ok) << lower.errorMessage;
    EXPECT_EQ(upper.toJson(false), lower.toJson(false));

    // Case-insensitivity extends to duplicate detection: two spellings
    // of one value are one value, not two axis entries.
    req.id = "cs2";
    req.isas = { "mmx", "MMX" };
    SimResponse dup = service.submit(req);
    EXPECT_FALSE(dup.ok);
    EXPECT_EQ(dup.errorCode, errc::kBadAxis);
}

// ---------------------------------------------------------------------
// Malformed-line id salvage (batch/serve error correlation)
// ---------------------------------------------------------------------

TEST(SalvageTopLevelId, RecoversIdsFromUnparseableLines)
{
    // Truncated object: still has a readable top-level id.
    EXPECT_EQ(salvageTopLevelId("{\"id\":\"req-17\",\"threads\":[1,"),
              "req-17");
    // Key order doesn't matter.
    EXPECT_EQ(salvageTopLevelId(
                  "{\"bench\":\"fig6\",\"id\":\"later\" nonsense"),
              "later");
    // Escapes in the value decode.
    EXPECT_EQ(salvageTopLevelId("{\"id\":\"a\\\"b\\\\c\", xx"),
              "a\"b\\c");
    EXPECT_EQ(salvageTopLevelId("{\"id\":\"\\u0041-7\", xx"), "A-7");
    // A nested "id" must not leak out as the request id.
    EXPECT_EQ(salvageTopLevelId(
                  "{\"meta\":{\"id\":\"inner\"},\"threads\":bad"),
              "");
    // Arrays are depth too.
    EXPECT_EQ(salvageTopLevelId("{\"a\":[{\"id\":\"x\"}], bad"), "");
    // Non-string ids and garbage salvage nothing.
    EXPECT_EQ(salvageTopLevelId("{\"id\":42, bad"), "");
    EXPECT_EQ(salvageTopLevelId("complete garbage"), "");
    EXPECT_EQ(salvageTopLevelId(""), "");
}

// ---------------------------------------------------------------------
// Client tagging (request-carried, echoed in responses)
// ---------------------------------------------------------------------

TEST(SimRequest, ClientFieldRoundTripsAndStaysOptional)
{
    SimRequest req = tinyRequest("tag1");
    // Untagged requests keep the PR 5 wire shape exactly: no "client"
    // key is serialized at all.
    EXPECT_EQ(req.toJson().find("\"client\""), std::string::npos);

    req.client = "farm-worker-3";
    SimRequest back;
    std::string error;
    ASSERT_TRUE(SimRequest::fromJson(req.toJson(), back, error))
        << error;
    EXPECT_EQ(back.client, "farm-worker-3");
    EXPECT_EQ(back.toJson(), req.toJson());

    SimResponse resp;
    resp.id = "tag1";
    resp.ok = true;
    EXPECT_EQ(resp.toJson().find("\"client\""), std::string::npos);
    resp.client = "farm-worker-3";
    EXPECT_NE(resp.toJson().find("\"client\":\"farm-worker-3\""),
              std::string::npos);
}

TEST(SimService, ShardedRequestReturnsOnlyItsSlice)
{
    SimService service;
    SimRequest req = tinyRequest("s1");
    req.shardIndex = 1;
    req.shardCount = 2;
    SimResponse first = service.submit(req);
    ASSERT_TRUE(first.ok) << first.errorMessage;
    req.id = "s2";
    req.shardIndex = 2;
    SimResponse second = service.submit(req);
    ASSERT_TRUE(second.ok) << second.errorMessage;
    EXPECT_EQ(first.totalPoints, 4u);
    EXPECT_EQ(second.totalPoints, 4u);
    EXPECT_EQ(first.rows.size() + second.rows.size(), 4u);
    EXPECT_GT(first.rows.size(), 0u);
    EXPECT_GT(second.rows.size(), 0u);
}

} // namespace
} // namespace momsim::svc
