/**
 * @file
 * `momsim loadgen` — a closed-loop load generator for the serve
 * daemon, and the serving-throughput benchmark for the point-level
 * scheduler.
 *
 * K client threads each open one connection and issue N sweep
 * requests back-to-back, measuring per-request latency. A
 * configurable fraction of every client's requests comes from a
 * *shared* script all clients repeat (same axes, same seed — so the
 * requests coalesce in the scheduler: first arrival simulates, the
 * rest join in flight or replay from the memory row cache); the rest
 * carry per-client seeds, so they are genuinely distinct work. The
 * report aggregates answered points per second across all clients
 * plus p50/p95 request latency, and can be written as JSON for CI
 * artifact upload (BENCH_serve_throughput.json).
 *
 * Closed-loop on purpose: each client waits for a response before
 * sending the next request, so concurrency is exactly --clients and
 * the latency numbers are not queueing artifacts of an open-loop
 * arrival process.
 */

#include "svc/serve_main.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "svc/json.hh"
#include "svc/sim_request.hh"

namespace momsim::svc
{

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** What one client thread did, merged after the join. */
struct ClientStats
{
    std::vector<double> latenciesMs;
    uint64_t points = 0;        ///< answered points (cached+simulated)
    uint64_t okRequests = 0;
    uint64_t badRequests = 0;   ///< ok:false responses
    std::string error;          ///< transport failure ("" = clean)
};

/** One response line's worth of accounting, via the strict parser. */
bool
tallyResponse(const std::string &line, ClientStats &stats)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(line, doc, error) || !doc.isObject())
        return false;
    const JsonValue *ok = doc.field("ok");
    if (!ok || !ok->isBool())
        return false;
    if (!ok->boolean) {
        ++stats.badRequests;
        return true;
    }
    ++stats.okRequests;
    const JsonValue *plan = doc.field("plan");
    if (plan && plan->isObject()) {
        uint64_t cached = 0, simulated = 0;
        const JsonValue *c = plan->field("cached");
        const JsonValue *s = plan->field("simulated");
        if (c)
            c->toU64(cached);
        if (s)
            s->toU64(simulated);
        stats.points += cached + simulated;
    }
    return true;
}

/** Blocking read of exactly one newline-terminated response. */
bool
readLine(int fd, std::string &carry, std::string &line)
{
    for (;;) {
        size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            line = carry.substr(0, nl);
            carry.erase(0, nl + 1);
            return true;
        }
        char buf[4096];
        long got = net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            return false;
        carry.append(buf, static_cast<size_t>(got));
    }
}

double
percentileMs(std::vector<double> sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

} // namespace

int
runLoadgen(int argc, char **argv)
{
    const char *cmd = "momsim loadgen";
    std::string connectAddr;
    std::string unixPath;
    std::string jsonPath;
    std::string threadsList = "1,2,4";
    std::string isasList = "mmx";
    int clients = 4;
    int requests = 8;
    int overlapPct = 50;
    int maxCycles = 20000;
    int connectRetries = 5;
    int retryBackoffMs = 200;

    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--connect") == 0) {
            if (!stringFlag(cmd, argc, argv, i, connectAddr))
                return 2;
        } else if (std::strcmp(arg, "--unix") == 0) {
            if (!stringFlag(cmd, argc, argv, i, unixPath))
                return 2;
        } else if (std::strcmp(arg, "--clients") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, clients))
                return 2;
        } else if (std::strcmp(arg, "--requests") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, requests))
                return 2;
        } else if (std::strcmp(arg, "--overlap") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, overlapPct) ||
                overlapPct > 100) {
                if (overlapPct > 100)
                    std::fprintf(stderr, "%s: bad --overlap %d (want "
                                 "0..100)\n", cmd, overlapPct);
                return 2;
            }
        } else if (std::strcmp(arg, "--max-cycles") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, maxCycles))
                return 2;
        } else if (std::strcmp(arg, "--threads") == 0) {
            if (!stringFlag(cmd, argc, argv, i, threadsList))
                return 2;
        } else if (std::strcmp(arg, "--isas") == 0) {
            if (!stringFlag(cmd, argc, argv, i, isasList))
                return 2;
        } else if (std::strcmp(arg, "--json") == 0) {
            if (!stringFlag(cmd, argc, argv, i, jsonPath))
                return 2;
        } else if (std::strcmp(arg, "--connect-retries") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, connectRetries))
                return 2;
        } else if (std::strcmp(arg, "--retry-backoff-ms") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, retryBackoffMs))
                return 2;
        } else {
            std::fprintf(stderr, "%s: unknown argument %s\n", cmd, arg);
            return 2;
        }
    }
    if (connectAddr.empty() == unixPath.empty()) {
        std::fprintf(stderr,
                     "%s: need exactly one of --connect HOST:PORT or "
                     "--unix PATH\n", cmd);
        return 2;
    }

    std::string host;
    int port = 0;
    if (unixPath.empty() && !net::parseHostPort(connectAddr, host, port)) {
        std::fprintf(stderr, "%s: bad --connect '%s' (want "
                     "HOST:PORT)\n", cmd, connectAddr.c_str());
        return 2;
    }

    std::vector<std::string> isas = splitCommas(isasList);
    std::vector<int> threads;
    for (const std::string &tok : splitCommas(threadsList)) {
        char *end = nullptr;
        long parsed = std::strtol(tok.c_str(), &end, 10);
        if (tok.empty() || !end || *end != '\0' || parsed < 1 ||
            parsed > 8) {
            std::fprintf(stderr, "%s: bad --threads entry '%s' (want "
                         "1..8)\n", cmd, tok.c_str());
            return 2;
        }
        threads.push_back(static_cast<int>(parsed));
    }
    if (isas.empty() || threads.empty()) {
        std::fprintf(stderr, "%s: --isas and --threads must not be "
                     "empty\n", cmd);
        return 2;
    }

    net::ignoreSigpipe();

    // Pre-script every client's requests so the measured loop does no
    // string assembly. Request r is "shared" (identical across all
    // clients, including the seed — the coalescing workload) when its
    // index falls inside the overlap fraction, per-client-unique
    // otherwise.
    const int shared = (requests * overlapPct + 99) / 100;
    auto scriptFor = [&](int client) {
        std::vector<std::string> lines;
        for (int r = 0; r < requests; ++r) {
            SimRequest req;
            req.isas = isas;
            req.threads = threads;
            req.memModels = { "perfect" };
            req.quick = true;
            req.maxCycles = static_cast<uint64_t>(maxCycles);
            if (r < shared) {
                req.id = strfmt("shared-%d", r);
                req.seed = 7;
            } else {
                req.id = strfmt("c%d-r%d", client, r);
                req.seed = 0x10000u +
                           static_cast<uint64_t>(client) * 4096u +
                           static_cast<uint64_t>(r);
            }
            lines.push_back(req.toJson() + "\n");
        }
        return lines;
    };

    std::vector<ClientStats> stats(static_cast<size_t>(clients));
    std::vector<std::thread> workers;
    const auto runStart = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            ClientStats &mine = stats[static_cast<size_t>(c)];
            auto dialOnce = [&](std::string &err) {
                return unixPath.empty()
                           ? net::connectTcp(host, port, err)
                           : net::connectUnix(unixPath, err);
            };
            std::string error;
            const int rawFd = net::connectRetry(dialOnce, connectRetries,
                                                retryBackoffMs, error,
                                                nullptr);
            if (rawFd < 0) {
                mine.error = error;
                return;
            }
            net::FdGuard fd(rawFd);
            std::string carry, line;
            for (const std::string &request : scriptFor(c)) {
                const auto t0 = std::chrono::steady_clock::now();
                if (!net::writeAll(fd.get(), request.data(),
                                   request.size())) {
                    mine.error = "server closed the connection";
                    return;
                }
                if (!readLine(fd.get(), carry, line)) {
                    mine.error = "connection dropped mid-response";
                    return;
                }
                const auto t1 = std::chrono::steady_clock::now();
                mine.latenciesMs.push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
                if (!tallyResponse(line, mine)) {
                    mine.error = "unparseable response line";
                    return;
                }
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    const double elapsedMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - runStart)
            .count();

    std::vector<double> latencies;
    uint64_t points = 0, okRequests = 0, badRequests = 0;
    int failedClients = 0;
    for (const ClientStats &s : stats) {
        latencies.insert(latencies.end(), s.latenciesMs.begin(),
                         s.latenciesMs.end());
        points += s.points;
        okRequests += s.okRequests;
        badRequests += s.badRequests;
        if (!s.error.empty()) {
            ++failedClients;
            std::fprintf(stderr, "%s: client failed: %s\n", cmd,
                         s.error.c_str());
        }
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentileMs(latencies, 50.0);
    const double p95 = percentileMs(latencies, 95.0);
    const double pointsPerSec =
        elapsedMs > 0.0 ? static_cast<double>(points) * 1000.0 / elapsedMs
                        : 0.0;

    std::printf("momsim loadgen: %d client(s) x %d request(s), overlap "
                "%d%%\n", clients, requests, overlapPct);
    std::printf("  requests     ok %llu / bad %llu / lost %llu\n",
                (unsigned long long)okRequests,
                (unsigned long long)badRequests,
                (unsigned long long)(
                    static_cast<uint64_t>(clients) *
                        static_cast<uint64_t>(requests) -
                    okRequests - badRequests));
    std::printf("  points       %llu answered in %.1f ms  (%.1f "
                "points/s)\n", (unsigned long long)points, elapsedMs,
                pointsPerSec);
    std::printf("  latency/req  p50 %.2f ms   p95 %.2f ms\n", p50, p95);

    if (!jsonPath.empty()) {
        std::FILE *out = std::fopen(jsonPath.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", cmd,
                         jsonPath.c_str());
            return 1;
        }
        std::fprintf(out,
                     "{\"benchmark\":\"serve_throughput\","
                     "\"clients\":%d,\"requestsPerClient\":%d,"
                     "\"overlapPct\":%d,\"okRequests\":%llu,"
                     "\"badRequests\":%llu,\"failedClients\":%d,"
                     "\"points\":%llu,\"elapsedMs\":%.3f,"
                     "\"pointsPerSec\":%.3f,\"latencyMsP50\":%.3f,"
                     "\"latencyMsP95\":%.3f}\n",
                     clients, requests, overlapPct,
                     (unsigned long long)okRequests,
                     (unsigned long long)badRequests, failedClients,
                     (unsigned long long)points, elapsedMs, pointsPerSec,
                     p50, p95);
        std::fclose(out);
    }

    return failedClients == 0 && badRequests == 0 ? 0 : 1;
}

} // namespace momsim::svc
