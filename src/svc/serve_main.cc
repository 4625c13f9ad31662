#include "svc/serve_main.hh"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "svc/connection.hh"
#include "svc/json.hh"
#include "svc/listener.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{

namespace
{

/** Reap finished connections (join + drop); returns the live count. */
size_t
reapConnections(std::vector<std::unique_ptr<Connection>> &conns)
{
    for (size_t i = 0; i < conns.size();) {
        if (conns[i]->done()) {
            conns[i]->join();
            conns.erase(conns.begin() + static_cast<long>(i));
        } else {
            ++i;
        }
    }
    return conns.size();
}

} // namespace

int
runServe(int argc, char **argv)
{
    const char *cmd = "momsim serve";
    int port = -1;
    std::string host = "127.0.0.1";
    std::string unixPath;
    int jobs = 0;
    int memCacheRows = -1;
    int maxClients = 32;
    int maxPending = 0;
    std::string cacheDir;
    std::string readyFile;
    bool withTiming = true;

    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--port") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, port) || port > 65535) {
                if (port > 65535)
                    std::fprintf(stderr, "%s: bad --port %d (max 65535)\n",
                                 cmd, port);
                return 2;
            }
        } else if (std::strcmp(arg, "--host") == 0) {
            if (!stringFlag(cmd, argc, argv, i, host))
                return 2;
        } else if (std::strcmp(arg, "--unix") == 0) {
            if (!stringFlag(cmd, argc, argv, i, unixPath))
                return 2;
        } else if (std::strcmp(arg, "--jobs") == 0 ||
                   std::strcmp(arg, "-j") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, jobs))
                return 2;
        } else if (std::strcmp(arg, "--mem-cache-rows") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, memCacheRows))
                return 2;
        } else if (std::strcmp(arg, "--max-clients") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, maxClients))
                return 2;
        } else if (std::strcmp(arg, "--max-pending") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, maxPending))
                return 2;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            if (!stringFlag(cmd, argc, argv, i, cacheDir))
                return 2;
        } else if (std::strcmp(arg, "--ready-file") == 0) {
            if (!stringFlag(cmd, argc, argv, i, readyFile))
                return 2;
        } else if (std::strcmp(arg, "--no-timing") == 0) {
            withTiming = false;
        } else {
            std::fprintf(stderr, "%s: unknown argument %s\n", cmd, arg);
            return 2;
        }
    }
    if (port < 0 && unixPath.empty()) {
        std::fprintf(stderr,
                     "%s: need a listen address: --port N (0 = "
                     "ephemeral) and/or --unix PATH\n", cmd);
        return 2;
    }

    net::ignoreSigpipe();

    // One warm SimService for the daemon's lifetime: the scheduler,
    // both workload repos and (with --cache-dir) the persistent result
    // store are built once and amortized across every connection.
    SimServiceConfig cfg;
    cfg.jobs = jobs;
    if (memCacheRows >= 0)
        cfg.memCacheRows = static_cast<size_t>(memCacheRows);
    SimService service(cfg);
    if (!cacheDir.empty()) {
        std::string error;
        if (!service.openCache(cacheDir, error)) {
            std::fprintf(stderr, "%s: %s\n", cmd, error.c_str());
            return 2;
        }
    }

    Listener listener;
    {
        Listener::Options lopts;
        lopts.tcpPort = port;
        lopts.host = host;
        lopts.unixPath = unixPath;
        std::string error;
        if (!listener.open(lopts, error)) {
            std::fprintf(stderr, "%s: %s\n", cmd, error.c_str());
            return 2;
        }
    }
    net::installShutdownSignals(listener.wakeWriteFd());

    const std::vector<std::string> addrs = listener.boundAddresses();
    for (const std::string &a : addrs)
        std::fprintf(stderr, "%s: listening on %s\n", cmd, a.c_str());
    if (!readyFile.empty()) {
        // Written tmp-then-rename so a poller never reads half a file.
        const std::string tmp = readyFile + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "%s: cannot write --ready-file %s\n",
                         cmd, readyFile.c_str());
            return 2;
        }
        for (const std::string &a : addrs)
            std::fprintf(f, "%s\n", a.c_str());
        std::fclose(f);
        std::rename(tmp.c_str(), readyFile.c_str());
    }

    Connection::Options copts;
    if (maxPending > 0)
        copts.maxPending = static_cast<size_t>(maxPending);
    copts.withTiming = withTiming;

    std::vector<std::unique_ptr<Connection>> conns;
    uint64_t serial = 0;

    // ---- accept loop: runs until the first SIGINT/SIGTERM ----
    for (;;) {
        int fd = listener.acceptClient();
        if (fd < 0)
            break;      // drain requested
        size_t active = reapConnections(conns);
        if (active >= static_cast<size_t>(maxClients)) {
            // Shed the whole connection with one structured error
            // line: better a fast, explicit "overloaded" than a
            // connection that sits unserved in a hidden backlog.
            std::string line =
                SimResponse::failure(
                    "", errc::kOverloaded,
                    strfmt("server at --max-clients %d; retry later",
                           maxClients))
                    .toJson(withTiming) +
                "\n";
            net::writeAll(fd, line.data(), line.size());
            ::close(fd);
            continue;
        }
        auto conn = std::make_unique<Connection>(
            fd, service, copts, strfmt("c%llu",
                                       (unsigned long long)++serial));
        conn->start();
        conns.push_back(std::move(conn));
    }

    // ---- graceful drain: stop accepting, finish in-flight work ----
    listener.close();
    std::fprintf(stderr,
                 "%s: drain requested; %zu connection(s) in flight\n",
                 cmd, reapConnections(conns));
    bool forced = false;
    while (reapConnections(conns) > 0) {
        if (!forced && net::shutdownRequestCount() >= 2) {
            // Second signal: half-close every connection's read side
            // so each answers what it already received and exits,
            // instead of waiting for its client's EOF.
            std::fprintf(stderr,
                         "%s: second signal; forcing connections to "
                         "drain\n", cmd);
            for (auto &c : conns)
                c->shutdownRead();
            forced = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::fprintf(stderr, "%s: drained, exiting\n", cmd);
    return 0;
}

int
runClient(int argc, char **argv)
{
    const char *cmd = "momsim client";
    std::string connectAddr;
    std::string unixPath;
    bool abortive = false;
    int connectRetries = 0;
    int retryBackoffMs = 200;

    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--connect") == 0) {
            if (!stringFlag(cmd, argc, argv, i, connectAddr))
                return 2;
        } else if (std::strcmp(arg, "--unix") == 0) {
            if (!stringFlag(cmd, argc, argv, i, unixPath))
                return 2;
        } else if (std::strcmp(arg, "--connect-retries") == 0) {
            if (!intFlag(cmd, argc, argv, i, 0, connectRetries))
                return 2;
        } else if (std::strcmp(arg, "--retry-backoff-ms") == 0) {
            if (!intFlag(cmd, argc, argv, i, 1, retryBackoffMs))
                return 2;
        } else if (std::strcmp(arg, "--abort") == 0) {
            abortive = true;
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

    net::ignoreSigpipe();

    std::string host;
    int port = 0;
    if (unixPath.empty() && !net::parseHostPort(connectAddr, host, port)) {
        std::fprintf(stderr, "%s: bad --connect '%s' (want "
                     "HOST:PORT)\n", cmd, connectAddr.c_str());
        return 2;
    }

    // The dial, with --connect-retries worth of jittered exponential
    // backoff — a client racing its server's startup waits politely
    // instead of failing instantly or hammering in lockstep.
    auto dialOnce = [&](std::string &err) {
        return unixPath.empty() ? net::connectTcp(host, port, err)
                                : net::connectUnix(unixPath, err);
    };
    std::string error;
    int attempts = 0;
    const int rawFd = net::connectRetry(dialOnce, connectRetries,
                                        retryBackoffMs, error, &attempts);
    if (rawFd < 0) {
        // One structured line so retry-exhaustion is machine-readable
        // in fleet logs, not just a prose message.
        std::fprintf(stderr,
                     "{\"error\":{\"code\":\"connect_failed\","
                     "\"message\":%s,\"attempts\":%d}}\n",
                     jsonQuote(strfmt("%s: %s", cmd, error.c_str()))
                         .c_str(),
                     attempts);
        return 1;
    }
    net::FdGuard fd(rawFd);

    if (abortive) {
        // Deliberately rude: send everything, then reset the
        // connection without reading a single response — the abrupt
        // mid-response disconnect a robust server must shrug off.
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
            if (!net::writeAll(fd.get(), buf, got))
                break;
        }
        net::setAbortiveClose(fd.get());
        return 0;       // FdGuard closes => RST with data in flight
    }

    // Full-duplex streaming: a writer thread pumps stdin to the
    // server (half-closing when stdin ends), while this thread pumps
    // responses to stdout — so a large stream can't deadlock on a
    // full socket buffer in either direction.
    std::thread writer([&fd, cmd] {
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
            if (!net::writeAll(fd.get(), buf, got)) {
                std::fprintf(stderr, "%s: server closed the "
                             "connection\n", cmd);
                break;
            }
        }
        ::shutdown(fd.get(), SHUT_WR);
    });

    char buf[4096];
    for (;;) {
        long got = net::readSome(fd.get(), buf, sizeof(buf));
        if (got <= 0)
            break;
        std::fwrite(buf, 1, static_cast<size_t>(got), stdout);
        std::fflush(stdout);
    }
    writer.join();
    return 0;
}

} // namespace momsim::svc
