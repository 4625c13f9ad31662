/**
 * @file
 * Tests for the distributed-sweep fabric (src/fabric/): the pong
 * round-trips and rejects version skew, the Dealer's fault-tolerance
 * state machine (worker death mid-shard re-deals, duplicate
 * completions are idempotent, an all-dead fleet reports failure
 * instead of hanging), the worker's side of the wire end to end (the
 * transport loop `momsim batch` and `momsim serve` share, over a real
 * SimService), and the sequencer's streaming of a request's rows
 * without reordering anyone else's responses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/net.hh"
#include "driver/experiment.hh"
#include "driver/result_store.hh"
#include "fabric/dealer.hh"
#include "fabric/protocol.hh"
#include "svc/connection.hh"
#include "svc/json.hh"
#include "svc/sequencer.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"

namespace momsim::fabric
{
namespace
{

svc::JsonValue
mustParse(const std::string &line)
{
    svc::JsonValue doc;
    std::string error;
    EXPECT_TRUE(svc::parseJson(line, doc, error)) << line << ": "
                                                  << error;
    return doc;
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(FabricProtocol, PongRoundTrips)
{
    Pong pong;
    pong.id = "p1";
    pong.version = fabricVersionString();
    pong.uptimeMs = 123456789ull;
    pong.inFlight = 3;
    pong.pendingPoints = 42;
    pong.pointsSimulated = 1000;
    pong.pointsDeduped = 250;
    pong.memCacheHits = 70;
    pong.diskCacheHits = 9;

    Pong back;
    std::string error;
    ASSERT_TRUE(parsePong(mustParse(pongToJson(pong)), back, error))
        << error;
    EXPECT_EQ(back.id, pong.id);
    EXPECT_EQ(back.version, pong.version);
    EXPECT_EQ(back.uptimeMs, pong.uptimeMs);
    EXPECT_EQ(back.inFlight, pong.inFlight);
    EXPECT_EQ(back.pendingPoints, pong.pendingPoints);
    EXPECT_EQ(back.pointsSimulated, pong.pointsSimulated);
    EXPECT_EQ(back.pointsDeduped, pong.pointsDeduped);
    EXPECT_EQ(back.memCacheHits, pong.memCacheHits);
    EXPECT_EQ(back.diskCacheHits, pong.diskCacheHits);
}

TEST(FabricProtocol, RejectsVersionSkewAndUnknownFields)
{
    std::string error;
    Pong pong;
    EXPECT_FALSE(parsePong(
        mustParse("{\"kind\":\"pong\",\"fabricVersion\":99,"
                  "\"version\":\"x\",\"uptimeMs\":0,\"inFlight\":0,"
                  "\"pendingPoints\":0}"),
        pong, error));
    EXPECT_NE(error.find("fabricVersion"), std::string::npos) << error;

    error.clear();
    Pong good;
    good.version = fabricVersionString();
    std::string line = pongToJson(good);
    line.insert(line.size() - 1, ",\"surprise\":1");
    EXPECT_FALSE(parsePong(mustParse(line), pong, error));
    EXPECT_NE(error.find("surprise"), std::string::npos) << error;
}

TEST(FabricProtocol, KindOfSeparatesTheTwoProtocols)
{
    EXPECT_EQ(kindOf(mustParse(pingToJson(""))), "ping");
    // A plain SimRequest line carries no "kind": the dual-protocol
    // dispatch depends on that staying true.
    svc::SimRequest req;
    req.id = "r1";
    req.bench = "fig6";
    EXPECT_EQ(kindOf(mustParse(req.toJson())), "");
}

// ---------------------------------------------------------------------
// Dealer
// ---------------------------------------------------------------------

std::vector<DealPoint>
makePoints(int n)
{
    std::vector<DealPoint> points;
    for (int i = 0; i < n; ++i) {
        DealPoint p;
        p.id = strfmt("p%d", i);
        p.cost = 1.0 + i;
        points.push_back(std::move(p));
    }
    return points;
}

TEST(Dealer, InitialDealPartitionsAllPoints)
{
    Dealer dealer(makePoints(7), 2);
    const std::vector<DealPoint> a = dealer.claim(0);
    const std::vector<DealPoint> b = dealer.claim(1);
    std::set<std::string> seen;
    for (const DealPoint &p : a)
        EXPECT_TRUE(seen.insert(p.id).second) << p.id;
    for (const DealPoint &p : b)
        EXPECT_TRUE(seen.insert(p.id).second) << p.id;
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_FALSE(a.empty());
    EXPECT_FALSE(b.empty());
    // The deal is the same LPT assignment the shard planner computes.
    std::vector<double> costs;
    for (int i = 0; i < 7; ++i)
        costs.push_back(1.0 + i);
    const std::vector<int> bins = driver::dealByCost(costs, 2);
    for (const DealPoint &p : a)
        EXPECT_EQ(bins[std::stoi(p.id.substr(1))], 0) << p.id;
    for (const DealPoint &p : b)
        EXPECT_EQ(bins[std::stoi(p.id.substr(1))], 1) << p.id;
}

TEST(Dealer, WorkerDeathRedealsUnfinishedPoints)
{
    Dealer dealer(makePoints(6), 2);
    const std::vector<DealPoint> mine = dealer.claim(1);
    for (const DealPoint &p : mine)
        EXPECT_TRUE(dealer.complete(p.id));

    // Worker 0 claimed its deal, finished one point, then died.
    const std::vector<DealPoint> theirs = dealer.claim(0);
    ASSERT_GE(theirs.size(), 2u);
    EXPECT_TRUE(dealer.complete(theirs[0].id));
    const size_t redealt = dealer.fail(0);
    EXPECT_EQ(redealt, theirs.size() - 1);
    EXPECT_EQ(dealer.redealCount(), redealt);
    EXPECT_EQ(dealer.liveWorkers(), 1);

    // The survivor picks up exactly the dead worker's unfinished load.
    const std::vector<DealPoint> rescued = dealer.claim(1);
    EXPECT_EQ(rescued.size(), redealt);
    for (const DealPoint &p : rescued)
        EXPECT_TRUE(dealer.complete(p.id));
    EXPECT_TRUE(dealer.done());
    EXPECT_FALSE(dealer.failed());
    // Everything finished: the next claim returns empty immediately.
    EXPECT_TRUE(dealer.claim(1).empty());
}

TEST(Dealer, DuplicateCompletionIsIdempotent)
{
    Dealer dealer(makePoints(2), 1);
    const std::vector<DealPoint> mine = dealer.claim(0);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_TRUE(dealer.complete("p0"));
    EXPECT_FALSE(dealer.complete("p0"));    // the late duplicate row
    EXPECT_EQ(dealer.remaining(), 1u);
    EXPECT_TRUE(dealer.complete("p1"));
    EXPECT_TRUE(dealer.done());
}

TEST(Dealer, PointCompletedWhileQueuedIsNeverClaimed)
{
    Dealer dealer(makePoints(3), 1);
    // A duplicate completion can land before the point is ever dealt
    // (a presumed-dead worker's rows arriving after a re-deal): the
    // claimer must skip it.
    EXPECT_TRUE(dealer.complete("p1"));
    const std::vector<DealPoint> mine = dealer.claim(0);
    ASSERT_EQ(mine.size(), 2u);
    for (const DealPoint &p : mine)
        EXPECT_NE(p.id, "p1");
}

TEST(Dealer, AllWorkersDeadReportsFailure)
{
    Dealer dealer(makePoints(4), 2);
    EXPECT_GT(dealer.fail(0), 0u);
    EXPECT_EQ(dealer.fail(0), 0u);  // idempotent
    EXPECT_GT(dealer.fail(1), 0u);
    EXPECT_TRUE(dealer.failed());
    EXPECT_FALSE(dealer.done());
    EXPECT_EQ(dealer.liveWorkers(), 0);
    // claim() must unblock with nothing rather than hang the fleet.
    EXPECT_TRUE(dealer.claim(0).empty());
    EXPECT_TRUE(dealer.claim(1).empty());
}

TEST(Dealer, BlockedClaimWakesWhenAnotherWorkerDies)
{
    // One point, two workers: one initial queue is empty, so that
    // worker's claim blocks until the owner dies and the point
    // re-deals.
    Dealer dealer(makePoints(1), 2);
    const bool zeroOwns = !dealer.claim(0).empty();
    const int idleWorker = zeroOwns ? 1 : 0;
    const int busyWorker = zeroOwns ? 0 : 1;
    if (!zeroOwns)
        ASSERT_FALSE(dealer.claim(1).empty());

    std::vector<DealPoint> rescued;
    std::thread claimer([&] { rescued = dealer.claim(idleWorker); });
    dealer.fail(busyWorker);
    claimer.join();
    ASSERT_EQ(rescued.size(), 1u);
    EXPECT_TRUE(dealer.complete(rescued[0].id));
    EXPECT_TRUE(dealer.done());
}

// ---------------------------------------------------------------------
// The worker's side of the wire, against a real SimService
// ---------------------------------------------------------------------

/** The quickest real sweep: one point, tiny scale, capped cycles. */
svc::SimRequest
tinyRequest()
{
    svc::SimRequest req;
    req.id = "sweep";
    req.isas = { "mmx" };
    req.memModels = { "perfect" };
    req.quick = true;
    req.maxCycles = 50000;
    return req;
}

/** The canonical point ids of tinyRequest(), straight from the same
 *  grid expansion the service performs. */
std::vector<std::string>
tinyPointIds()
{
    driver::SweepGrid grid;
    grid.isas({ isa::SimdIsa::Mmx });
    grid.memModels({ mem::MemModel::Perfect });
    driver::applyRunSelection(grid, {}, 50000);
    std::vector<std::string> ids;
    for (const driver::ExperimentSpec &spec : grid.expand(0))
        ids.push_back(spec.canonicalId());
    return ids;
}

/** Every line the transport loop `momsim batch` and `momsim serve`
 *  share emits for @p input against @p service, in order. */
std::vector<std::string>
answer(svc::SimService &service, const std::vector<std::string> &input)
{
    // The inputs are small, so the whole stream fits in the pipe
    // before the loop starts reading it.
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    std::string wire;
    for (const std::string &line : input)
        wire += line + "\n";
    EXPECT_TRUE(net::writeAll(fds[1], wire.data(), wire.size()));
    ::close(fds[1]);

    std::vector<std::string> out;
    svc::ResponseSequencer::Config cfg;
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);    // the one emitter thread
        return true;
    };
    cfg.withTiming = false;
    EXPECT_EQ(svc::serveLines(fds[0], service, std::move(cfg)),
              svc::StreamEnd::Eof);
    ::close(fds[0]);
    return out;
}

TEST(FabricWorker, PingAnswersPongWithVersionAndGauges)
{
    svc::SimService service;
    const std::vector<std::string> out = answer(service, { pingToJson("hi") });
    ASSERT_EQ(out.size(), 1u);
    Pong pong;
    std::string error;
    ASSERT_TRUE(parsePong(mustParse(out[0]), pong, error)) << error;
    EXPECT_EQ(pong.id, "hi");
    EXPECT_EQ(pong.version, fabricVersionString());
    EXPECT_EQ(pong.inFlight, 0);
    EXPECT_EQ(pong.pendingPoints, 0);
    // A fresh service has touched no points yet: all gauges zero.
    EXPECT_EQ(pong.pointsSimulated, 0u);
    EXPECT_EQ(pong.pointsDeduped, 0u);
    EXPECT_EQ(pong.memCacheHits, 0u);
    EXPECT_EQ(pong.diskCacheHits, 0u);
}

TEST(FabricWorker, StreamedPointsSendRowsThenTheResponse)
{
    svc::SimService service;
    const std::vector<std::string> ids = tinyPointIds();
    ASSERT_EQ(ids.size(), 1u);

    svc::SimRequest deal = tinyRequest();
    deal.id = "d0-0";
    deal.points = ids;
    deal.stream = true;
    const std::vector<std::string> out = answer(service, { deal.toJson() });

    // One store line per dealt point, then the final response.
    ASSERT_EQ(out.size(), 2u);
    std::string key;
    driver::ResultRow row;
    ASSERT_TRUE(driver::readStoreLine(mustParse(out[0]), key, row))
        << out[0];
    EXPECT_EQ(key.rfind(ids[0] + "|", 0), 0u) << key;
    EXPECT_EQ(row.id, ids[0]);

    const svc::JsonValue done = mustParse(out[1]);
    EXPECT_EQ(done.field("key"), nullptr);
    EXPECT_EQ(done.field("id")->text, deal.id);
    EXPECT_TRUE(done.field("ok")->boolean) << out[1];
    const svc::JsonValue *plan = done.field("plan");
    ASSERT_NE(plan, nullptr) << out[1];
    uint64_t simulated = 0, cached = 0;
    EXPECT_TRUE(plan->field("simulated")->toU64(simulated));
    EXPECT_TRUE(plan->field("cached")->toU64(cached));
    EXPECT_EQ(simulated, 1u);
    EXPECT_EQ(cached, 0u);
    // The rows already went out; the final response carries none.
    EXPECT_TRUE(done.field("rows")->items.empty()) << out[1];
    EXPECT_EQ(service.pendingPoints(), 0);
}

TEST(FabricWorker, UnknownPointFailsTheRequest)
{
    svc::SimService service;
    svc::SimRequest deal = tinyRequest();
    deal.id = "d0-0";
    deal.points = { "not/a/real/point" };
    deal.stream = true;
    const std::vector<std::string> out = answer(service, { deal.toJson() });

    ASSERT_EQ(out.size(), 1u);  // no row line, just the failure
    const svc::JsonValue done = mustParse(out[0]);
    EXPECT_EQ(done.field("id")->text, deal.id);
    EXPECT_FALSE(done.field("ok")->boolean);
    EXPECT_EQ(done.field("error")->field("code")->text,
              svc::errc::kBadRequest);
    // No dealt point may leak into the pending gauge after a failure.
    EXPECT_EQ(service.pendingPoints(), 0);
}

TEST(FabricWorker, OtherKindsAnswerUnknownKindAndEverythingElseIsARequest)
{
    svc::SimService service;
    const std::vector<std::string> out =
        answer(service, { "{\"kind\":\"frobnicate\",\"id\":\"f\"}",
                          "not json at all", tinyRequest().toJson() });
    ASSERT_EQ(out.size(), 3u);
    // An unknown kind is a fabric message, answered with an error line.
    const svc::JsonValue unknown = mustParse(out[0]);
    EXPECT_EQ(kindOf(unknown), "error");
    EXPECT_EQ(unknown.field("id")->text, "f");
    EXPECT_EQ(unknown.field("error")->field("code")->text, "unknown_kind");
    // Garbage and plain requests belong to the strict SimRequest path.
    EXPECT_NE(out[1].find("\"code\":\"bad_request\""), std::string::npos)
        << out[1];
    EXPECT_EQ(kindOf(mustParse(out[2])), "");
    EXPECT_NE(out[2].find("\"ok\":true"), std::string::npos) << out[2];
}

// ---------------------------------------------------------------------
// Sequencer row streaming
// ---------------------------------------------------------------------

TEST(SequencerChunks, ChunksPrecedeTheirFinalAndNeverReorderOthers)
{
    std::vector<std::string> out;
    svc::ResponseSequencer::Config cfg;
    // A streamed request gets three rows, then its final response; a
    // buffered one just the response.
    cfg.start = [](const svc::SimRequest &req,
                   const svc::SimService::RowFn &onRow,
                   svc::SimService::DoneFn onDone) {
        if (req.stream) {
            for (int i = 0; i < 3; ++i) {
                driver::PlannedPoint p;
                p.key = strfmt("%s.k%d", req.id.c_str(), i);
                driver::ResultRow row;
                row.id = p.key;
                onRow(p, row);
            }
        }
        svc::SimResponse resp;
        resp.id = req.id;
        resp.ok = true;
        onDone(resp);
    };
    cfg.emit = [&](const std::string &line) {
        out.push_back(line);    // the one emitter thread
        return true;
    };
    auto request = [](const std::string &id, bool stream) {
        svc::SimRequest req;
        req.id = id;
        req.stream = stream;
        return req.toJson();
    };
    {
        svc::ResponseSequencer seq(cfg);
        seq.push(request("a", true));
        seq.push(request("r1", false));
        seq.push(request("b", true));
        seq.finish();
    }
    ASSERT_EQ(out.size(), 9u);
    // Slot order is strict: all of a's rows, a's final, the plain
    // response, then b's rows and final.
    auto keyOf = [](const std::string &line) {
        const svc::JsonValue doc = mustParse(line);
        const svc::JsonValue *key = doc.field("key");
        return key ? key->text : "final:" + doc.field("id")->text;
    };
    EXPECT_EQ(keyOf(out[0]), "a.k0");
    EXPECT_EQ(keyOf(out[1]), "a.k1");
    EXPECT_EQ(keyOf(out[2]), "a.k2");
    EXPECT_EQ(keyOf(out[3]), "final:a");
    EXPECT_EQ(keyOf(out[4]), "final:r1");
    EXPECT_EQ(keyOf(out[5]), "b.k0");
    EXPECT_EQ(keyOf(out[8]), "final:b");
}

} // namespace
} // namespace momsim::fabric
