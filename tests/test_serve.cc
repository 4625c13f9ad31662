/**
 * @file
 * Tests for the socket transport behind `momsim serve`: the shared
 * ResponseSequencer state machine (in-order emission, id salvage,
 * blank-line skipping, kOverloaded shedding, write-failure draining),
 * the Listener (TCP + unix accept, wake), and Connection end to end
 * over a real loopback socket — including the abrupt-disconnect case
 * the daemon must survive and the request-line cap that bounds one
 * client's memory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/net.hh"
#include "svc/connection.hh"
#include "svc/listener.hh"
#include "svc/sequencer.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{
namespace
{

// ---------------------------------------------------------------------
// ResponseSequencer
// ---------------------------------------------------------------------

/** An ok response echoing the request's id, without simulating. */
SimResponse
echoResponse(const SimRequest &req)
{
    SimResponse resp;
    resp.id = req.id;
    resp.ok = true;
    return resp;
}

/** A start hook that answers every request on the caller. */
void
echoStart(const SimRequest &req, const SimService::RowFn &,
          SimService::DoneFn onDone)
{
    onDone(echoResponse(req));
}

std::string
requestLine(const std::string &id)
{
    SimRequest req;
    req.id = id;
    return req.toJson();
}

TEST(Sequencer, EmitsInInputOrderDespiteOutOfOrderCompletion)
{
    std::vector<std::string> out;
    std::vector<std::thread> late;
    ResponseSequencer::Config cfg;
    cfg.start = [&late](const SimRequest &req, const SimService::RowFn &,
                        SimService::DoneFn onDone) {
        // The first request finishes last: emission order must still
        // be input order.
        if (req.id != "slow")
            return onDone(echoResponse(req));
        late.emplace_back([req, onDone] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            onDone(echoResponse(req));
        });
    };
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    {
        ResponseSequencer seq(cfg);
        seq.push(requestLine("slow"));
        seq.push(requestLine("fast1"));
        seq.push(requestLine("fast2"));
        seq.finish();
        EXPECT_EQ(seq.accepted(), 3u);
        EXPECT_EQ(seq.emitted(), 3u);
        EXPECT_FALSE(seq.writeFailed());
    }
    for (std::thread &t : late)
        t.join();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find("\"id\":\"slow\""), std::string::npos);
    EXPECT_NE(out[1].find("\"id\":\"fast1\""), std::string::npos);
    EXPECT_NE(out[2].find("\"id\":\"fast2\""), std::string::npos);
}

TEST(Sequencer, MalformedLineSalvagesIdAndBlankLinesSkip)
{
    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.start = echoStart;
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.clientTag = "c9";
    ResponseSequencer seq(cfg);
    seq.push("");
    seq.push(requestLine("good"));
    seq.push("");
    seq.push("{\"id\":\"lost-req\", this is not json");
    seq.push("");
    // Version 1's retired knob is still validated on the wire.
    seq.push("{\"schemaVersion\":1,\"id\":\"b0\",\"batch\":0}");
    seq.finish();

    ASSERT_EQ(out.size(), 3u);  // blank lines produce no slots
    EXPECT_EQ(seq.accepted(), 3u);
    EXPECT_NE(out[0].find("\"id\":\"good\""), std::string::npos);
    // The bad_request response echoes the salvaged id and the
    // transport's client tag, so the client can correlate it.
    EXPECT_NE(out[1].find("\"id\":\"lost-req\""), std::string::npos);
    EXPECT_NE(out[1].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(out[1].find("\"code\":\"bad_request\""), std::string::npos);
    EXPECT_NE(out[1].find("\"client\":\"c9\""), std::string::npos);
    EXPECT_NE(out[2].find("\"id\":\"b0\""), std::string::npos);
    EXPECT_NE(out[2].find("\"code\":\"bad_request\""), std::string::npos);
    EXPECT_NE(out[2].find("bad batch 0"), std::string::npos) << out[2];
}

TEST(Sequencer, ShedsWithOverloadedWhenQueueFull)
{
    // maxPending 2, and the test holds every completion: a and b are
    // admitted and started, so c must shed with a structured
    // kOverloaded error in its slot, in order.
    std::vector<std::pair<SimRequest, SimService::DoneFn>> held;
    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.start = [&held](const SimRequest &req, const SimService::RowFn &,
                        SimService::DoneFn onDone) {
        held.emplace_back(req, std::move(onDone));
    };
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.maxPending = 2;
    cfg.shedOnFull = true;
    ResponseSequencer seq(cfg);

    seq.push(requestLine("a"));
    seq.push(requestLine("b"));     // admitted: pending = 2 = max
    seq.push(requestLine("c"));     // full: shed
    for (auto &[req, onDone] : held)
        onDone(echoResponse(req));
    seq.finish();

    EXPECT_EQ(seq.shedCount(), 1u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find("\"id\":\"a\""), std::string::npos);
    EXPECT_NE(out[1].find("\"id\":\"b\""), std::string::npos);
    EXPECT_NE(out[2].find("\"id\":\"c\""), std::string::npos);
    EXPECT_NE(out[2].find("\"code\":\"overloaded\""), std::string::npos);
    EXPECT_NE(out[2].find("\"ok\":false"), std::string::npos);
    // Shed requests are never executed.
    EXPECT_EQ(held.size(), 2u);
}

TEST(Sequencer, WriteFailureDrainsWithoutSimulating)
{
    // Delivery dies on the first emit. With a 1-deep admission bound,
    // at most one request can be started before the failure lands;
    // everything after must drain unexecuted.
    std::atomic<int> executed{ 0 };
    ResponseSequencer::Config cfg;
    cfg.start = [&](const SimRequest &req, const SimService::RowFn &,
                    SimService::DoneFn onDone) {
        executed.fetch_add(1);
        // Slow enough that the emitter's failure lands before the
        // pipeline can race far ahead.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        onDone(echoResponse(req));
    };
    cfg.emit = [](const std::string &) { return false; };
    cfg.maxPending = 1;
    ResponseSequencer seq(cfg);

    for (int i = 0; i < 20; ++i)
        seq.push(requestLine(strfmt("r%d", i)));
    seq.finish();

    EXPECT_TRUE(seq.writeFailed());
    EXPECT_EQ(seq.emitted(), 0u);
    EXPECT_LE(executed.load(), 3);  // in-flight + queued at failure
    EXPECT_LT(seq.accepted(), 20u); // pushes after failure are dropped
}

/** Threads of this process, from /proc/self/task. */
size_t
threadCount()
{
    size_t n = 0;
    if (DIR *dir = ::opendir("/proc/self/task")) {
        while (const dirent *entry = ::readdir(dir)) {
            if (entry->d_name[0] != '.')
                ++n;
        }
        ::closedir(dir);
    }
    return n;
}

TEST(Sequencer, StartsEveryAdmittedRequestOnTheReaderWithOneThread)
{
    // Eight pipelined requests, none completed: each is started as it
    // is pushed — no thread parks per request, so the sequencer costs
    // its emitter and nothing else.
    const size_t before = threadCount();
    ASSERT_GT(before, 0u);
    std::vector<std::pair<SimRequest, SimService::DoneFn>> held;
    std::vector<std::string> out;
    ResponseSequencer::Config cfg;
    cfg.start = [&held](const SimRequest &req, const SimService::RowFn &,
                        SimService::DoneFn onDone) {
        held.emplace_back(req, std::move(onDone));
    };
    cfg.emit = [&out](const std::string &line) {
        out.push_back(line);
        return true;
    };
    cfg.shedOnFull = true;
    ResponseSequencer seq(cfg);
    for (int i = 0; i < 8; ++i)
        seq.push(requestLine(strfmt("h%d", i)));

    EXPECT_EQ(held.size(), 8u);
    EXPECT_EQ(seq.shedCount(), 0u);
    EXPECT_EQ(threadCount(), before + 1);

    // Completing them in reverse still emits them in order.
    for (auto it = held.rbegin(); it != held.rend(); ++it)
        it->second(echoResponse(it->first));
    seq.finish();
    ASSERT_EQ(out.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_NE(out[static_cast<size_t>(i)].find(
                      strfmt("\"id\":\"h%d\"", i)),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------

TEST(Listener, BindsTcpAndUnixAndWakes)
{
    const std::string sock = "test_serve.listener.sock";
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;       // ephemeral
    opts.unixPath = sock;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;
    EXPECT_GT(listener.boundPort(), 0);
    ASSERT_EQ(listener.boundAddresses().size(), 2u);

    // A TCP client and a unix client both get accepted.
    std::thread tcpClient([&] {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", listener.boundPort(), err);
        ASSERT_GE(fd, 0) << err;
        ::close(fd);
    });
    int accepted = listener.acceptClient();
    EXPECT_GE(accepted, 0);
    ::close(accepted);
    tcpClient.join();

    std::thread unixClient([&] {
        std::string err;
        int fd = net::connectUnix(sock, err);
        ASSERT_GE(fd, 0) << err;
        ::close(fd);
    });
    accepted = listener.acceptClient();
    EXPECT_GE(accepted, 0);
    ::close(accepted);
    unixClient.join();

    // wake() unblocks a pending accept with -1 (the drain signal).
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        listener.wake();
    });
    EXPECT_EQ(listener.acceptClient(), -1);
    waker.join();
    listener.close();
}

TEST(Listener, RejectsEmptyOptionsAndBadAddresses)
{
    Listener listener;
    std::string error;
    EXPECT_FALSE(listener.open({}, error));
    EXPECT_FALSE(error.empty());

    Listener::Options bad;
    bad.tcpPort = 80;
    bad.host = "not-an-ip";
    error.clear();
    EXPECT_FALSE(listener.open(bad, error));
    EXPECT_NE(error.find("not-an-ip"), std::string::npos);
}

// ---------------------------------------------------------------------
// Connection over a real loopback socket
// ---------------------------------------------------------------------

/** Read from fd until EOF; returns everything received. */
std::string
readAll(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        long got = net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            return out;
        out.append(buf, static_cast<size_t>(got));
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

/** A tiny explicit-axes request that simulates in milliseconds. */
SimRequest
tinyRequest(const std::string &id)
{
    SimRequest req;
    req.id = id;
    req.isas = { "mmx" };
    req.threads = { 1 };
    req.memModels = { "perfect" };
    req.quick = true;
    req.maxCycles = 50000;
    return req;
}

TEST(ServeConnection, ServesATaggedStreamInOrder)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);

    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    // Two valid requests (one carrying its own client tag), one
    // malformed line with a salvageable id, and no trailing newline on
    // the last request — all answered, in order.
    SimRequest tagged = tinyRequest("t2");
    tagged.client = "external-7";
    std::string wire = tinyRequest("t1").toJson() + "\n" +
                       "{\"id\":\"broken\" not json\n" +
                       tagged.toJson();
    ASSERT_TRUE(net::writeAll(clientFd, wire.data(), wire.size()));
    ::shutdown(clientFd, SHUT_WR);

    std::vector<std::string> lines = splitLines(readAll(clientFd));
    ::close(clientFd);
    conn.join();
    EXPECT_TRUE(conn.done());

    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"id\":\"t1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"client\":\"c1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[1].find("\"id\":\"broken\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"code\":\"bad_request\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"client\":\"c1\""), std::string::npos);
    // A request's own client tag wins over the connection's.
    EXPECT_NE(lines[2].find("\"id\":\"t2\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"client\":\"external-7\""),
              std::string::npos);
}

TEST(ServeConnection, SurvivesAbruptClientDisconnect)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    // Client sends requests then resets the connection without
    // reading a byte. The connection must finish (dropping what it
    // cannot deliver) and the service must stay healthy.
    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);

    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    std::string wire;
    for (int i = 0; i < 8; ++i)
        wire += tinyRequest(strfmt("d%d", i)).toJson() + "\n";
    ASSERT_TRUE(net::writeAll(clientFd, wire.data(), wire.size()));
    net::setAbortiveClose(clientFd);
    ::close(clientFd);      // RST: the server's next write must fail

    conn.join();            // must terminate, not hang or crash
    EXPECT_TRUE(conn.done());

    // The daemon (and its warm service) keeps serving after the rude
    // client is gone.
    SimResponse after = service.submit(tinyRequest("after"));
    EXPECT_TRUE(after.ok) << after.errorMessage;
}

TEST(ServeConnection, OverlongLineGetsBadRequestThenClose)
{
    SimService service;
    Listener listener;
    Listener::Options opts;
    opts.tcpPort = 0;
    std::string error;
    ASSERT_TRUE(listener.open(opts, error)) << error;

    std::string err;
    int clientFd =
        net::connectTcp("127.0.0.1", listener.boundPort(), err);
    ASSERT_GE(clientFd, 0) << err;
    int serverFd = listener.acceptClient();
    ASSERT_GE(serverFd, 0);

    Connection conn(serverFd, service, {}, "c1");
    conn.start();

    // One well-formed request, then 64 MiB without a newline from a
    // writer thread. A reset must fail the writer's write, not kill
    // the test with SIGPIPE.
    net::ignoreSigpipe();
    constexpr size_t kStreamBytes = size_t { 64 } << 20;
    std::atomic<size_t> written { 0 };
    std::thread writer([&] {
        const std::string first = tinyRequest("ok1").toJson() + "\n";
        if (!net::writeAll(clientFd, first.data(), first.size()))
            return;
        const std::string chunk(size_t { 64 } << 10, 'x');
        while (written.load() < kStreamBytes) {
            if (!net::writeAll(clientFd, chunk.data(), chunk.size()))
                return;
            written += chunk.size();
        }
    });

    // The daemon answers and closes while the client is still writing;
    // a daemon that keeps buffering never closes, so bound the wait.
    std::string received;
    char buf[4096];
    while (net::waitReadable(clientFd, 30000) == 1) {
        long got = net::readSome(clientFd, buf, sizeof(buf));
        if (got <= 0)
            break;
        received.append(buf, static_cast<size_t>(got));
    }
    std::vector<std::string> lines = splitLines(received);
    const size_t writtenAtClose = written.load();
    ::shutdown(clientFd, SHUT_RDWR);    // release a writer still blocked
    writer.join();
    ::close(clientFd);
    conn.join();
    EXPECT_TRUE(conn.done());

    EXPECT_LT(writtenAtClose, kStreamBytes);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"id\":\"ok1\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[1].find("\"code\":\"bad_request\""),
              std::string::npos);
    EXPECT_NE(lines[1].find(strfmt("%zu bytes", Connection::kMaxLineBytes)),
              std::string::npos) << lines[1];
    EXPECT_NE(lines[1].find("\"client\":\"c1\""), std::string::npos);
}

TEST(SimService, SharedCacheWarmsAcrossRequests)
{
    const std::string dir = "test_serve.cache";
    std::remove((dir + "/results.jsonl").c_str());
    ::rmdir(dir.c_str());

    SimService service;
    std::string error;
    ASSERT_TRUE(service.openCache(dir, error)) << error;
    EXPECT_EQ(service.cacheDir(), dir);

    SimRequest req = tinyRequest("warm1");
    SimResponse cold = service.submit(req);
    ASSERT_TRUE(cold.ok) << cold.errorMessage;
    EXPECT_EQ(cold.simulatedPoints, 1u);
    EXPECT_EQ(cold.cachedPoints, 0u);

    // Same request again, no cacheDir named in the request: the
    // service-lifetime store answers it without simulating.
    req.id = "warm2";
    SimResponse warm = service.submit(req);
    ASSERT_TRUE(warm.ok) << warm.errorMessage;
    EXPECT_EQ(warm.simulatedPoints, 0u);
    EXPECT_EQ(warm.cachedPoints, 1u);
    ASSERT_EQ(warm.rows.size(), 1u);
    EXPECT_EQ(warm.rows[0].run.cycles, cold.rows[0].run.cycles);

    // A fresh service on the same dir starts warm (persistence), and
    // a request naming the same dir explicitly shares the store.
    SimService reopened;
    ASSERT_TRUE(reopened.openCache(dir, error)) << error;
    req.id = "warm3";
    req.cacheDir = dir;
    SimResponse again = reopened.submit(req);
    ASSERT_TRUE(again.ok) << again.errorMessage;
    EXPECT_EQ(again.simulatedPoints, 0u);
    EXPECT_EQ(again.cachedPoints, 1u);
}

} // namespace
} // namespace momsim::svc
