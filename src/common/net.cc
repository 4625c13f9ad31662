#include "common/net.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <random>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/flags.hh"
#include "common/logging.hh"

namespace momsim::net
{

bool
parseHostPort(const std::string &text, std::string &host, int &port)
{
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        !parseIntFlag(text.c_str() + colon + 1, 1, port) || port > 65535)
        return false;
    host = text.substr(0, colon);
    return true;
}

void
FdGuard::reset(int fd)
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = fd;
}

void
ignoreSigpipe()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
}

namespace
{

std::atomic<int> gShutdownCount{ 0 };
std::atomic<int> gShutdownWakeFd{ -1 };

extern "C" void
shutdownHandler(int)
{
    gShutdownCount.fetch_add(1, std::memory_order_relaxed);
    int fd = gShutdownWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 's';
        // Best effort: a full pipe already guarantees a pending wake.
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

} // namespace

void
installShutdownSignals(int wakeFd)
{
    gShutdownWakeFd.store(wakeFd, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = shutdownHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: blocking accept/poll must return EINTR so the
    // acceptor notices the drain request even if the pipe write raced.
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

int
shutdownRequestCount()
{
    return gShutdownCount.load(std::memory_order_relaxed);
}

bool
writeAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    bool socketFd = true;
    while (n > 0) {
        // MSG_NOSIGNAL so a peer-reset socket fails with EPIPE instead
        // of raising SIGPIPE — the library must be safe even in hosts
        // that never called ignoreSigpipe(). Plain write() for pipes.
        ssize_t wrote =
            socketFd ? ::send(fd, p, n, MSG_NOSIGNAL) : ::write(fd, p, n);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            if (socketFd && errno == ENOTSOCK) {
                socketFd = false;
                continue;
            }
            return false;
        }
        p += wrote;
        n -= static_cast<size_t>(wrote);
    }
    return true;
}

long
readSome(int fd, void *buf, size_t n)
{
    for (;;) {
        ssize_t got = ::read(fd, buf, n);
        if (got < 0 && errno == EINTR)
            continue;
        return static_cast<long>(got);
    }
}

int
waitReadable(int fd, int timeoutMs)
{
    using clock = std::chrono::steady_clock;
    const bool forever = timeoutMs < 0;
    clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(forever ? 0 : timeoutMs);
    for (;;) {
        int wait = -1;
        if (!forever) {
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - clock::now())
                            .count();
            wait = left > 0 ? static_cast<int>(left) : 0;
        }
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int rc = ::poll(&pfd, 1, wait);
        if (rc > 0)
            return 1;   // readable, EOF or error — read() will tell
        if (rc == 0)
            return 0;
        if (errno != EINTR)
            return -1;
    }
}

int
connectRetry(const std::function<int(std::string &)> &dial, int retries,
             int backoffMs, std::string &error, int *attempts)
{
    // Per-thread PRNG so concurrent dialers (the coordinator runs one
    // per worker) never share — or synchronize on — generator state.
    thread_local std::minstd_rand rng(
        static_cast<unsigned>(::getpid()) * 2654435761u ^
        static_cast<unsigned>(
            std::chrono::steady_clock::now().time_since_epoch().count()));

    int made = 0;
    for (int attempt = 0;; ++attempt) {
        ++made;
        int fd = dial(error);
        if (fd >= 0 || attempt >= retries) {
            if (attempts)
                *attempts = made;
            return fd;
        }
        double base = static_cast<double>(backoffMs < 1 ? 1 : backoffMs);
        for (int i = 0; i < attempt; ++i)
            base *= 2.0;
        if (base > 10000.0)
            base = 10000.0;
        std::uniform_real_distribution<double> jitter(0.5, 1.5);
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            base * jitter(rng)));
    }
}

namespace
{

int
failWith(std::string &error, const char *what)
{
    error = strfmt("%s: %s", what, std::strerror(errno));
    return -1;
}

bool
fillTcpAddr(const std::string &host, int port, sockaddr_in &addr,
            std::string &error)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = strfmt("bad IPv4 address \"%s\"", host.c_str());
        return false;
    }
    return true;
}

bool
fillUnixAddr(const std::string &path, sockaddr_un &addr,
             std::string &error)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        error = strfmt("unix socket path \"%s\" empty or longer than "
                       "%zu bytes", path.c_str(),
                       sizeof(addr.sun_path) - 1);
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int
listenTcp(const std::string &host, int port, std::string &error)
{
    sockaddr_in addr;
    if (!fillTcpAddr(host, port, addr, error))
        return -1;
    FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return failWith(error, "socket");
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return failWith(error, "bind");
    if (::listen(fd.get(), 64) != 0)
        return failWith(error, "listen");
    return fd.release();
}

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, error))
        return -1;
    // A stale socket file from a dead server would make bind fail with
    // EADDRINUSE even though nobody is listening; remove it first.
    ::unlink(path.c_str());
    FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return failWith(error, "socket");
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return failWith(error, "bind");
    if (::listen(fd.get(), 64) != 0)
        return failWith(error, "listen");
    return fd.release();
}

int
connectTcp(const std::string &host, int port, std::string &error)
{
    sockaddr_in addr;
    if (!fillTcpAddr(host, port, addr, error))
        return -1;
    FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return failWith(error, "socket");
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return failWith(error, "connect");
    return fd.release();
}

int
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, error))
        return -1;
    FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return failWith(error, "socket");
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return failWith(error, "connect");
    return fd.release();
}

int
boundTcpPort(int fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        return -1;
    return static_cast<int>(ntohs(addr.sin_port));
}

void
setAbortiveClose(int fd)
{
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

} // namespace momsim::net
