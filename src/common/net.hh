/**
 * @file
 * Small POSIX plumbing for the socket transports: RAII file
 * descriptors, full-write loops, loopback/unix socket setup and the
 * process-wide graceful-shutdown signal latch.
 *
 * Everything here is transport mechanics with no simulator knowledge —
 * the service layer (src/svc/) composes these into listeners and
 * connections. All functions report failures as return values plus an
 * error string; nothing exits.
 */

#ifndef MOMSIM_COMMON_NET_HH
#define MOMSIM_COMMON_NET_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>

namespace momsim::net
{

/** Movable owner of one POSIX fd; closes on destruction. */
class FdGuard
{
  public:
    FdGuard() = default;
    explicit FdGuard(int fd) : _fd(fd) {}
    ~FdGuard() { reset(); }

    FdGuard(const FdGuard &) = delete;
    FdGuard &operator=(const FdGuard &) = delete;

    FdGuard(FdGuard &&other) noexcept : _fd(other.release()) {}
    FdGuard &
    operator=(FdGuard &&other) noexcept
    {
        if (this != &other) {
            reset();
            _fd = other.release();
        }
        return *this;
    }

    int get() const { return _fd; }
    bool valid() const { return _fd >= 0; }

    /** Give up ownership without closing. */
    int
    release()
    {
        int fd = _fd;
        _fd = -1;
        return fd;
    }

    /** Close the held fd (if any) and adopt @p fd. */
    void reset(int fd = -1);

  private:
    int _fd = -1;
};

/**
 * Ignore SIGPIPE process-wide. Every transport entry point calls this
 * first: a client closing its pipe or socket mid-stream must surface
 * as a write error the emitter can handle, not a process kill.
 */
void ignoreSigpipe();

/**
 * Install SIGINT/SIGTERM handlers that count deliveries and write one
 * byte to @p wakeFd (a pipe write end) so a poll()-based accept loop
 * wakes promptly. Async-signal-safe. Call once per process.
 */
void installShutdownSignals(int wakeFd);

/** Deliveries so far: 0 = run, 1 = graceful drain, >= 2 = hurry up. */
int shutdownRequestCount();

/** Write all @p n bytes of @p data to @p fd, retrying short writes
 *  and EINTR. False on any unrecoverable write error. */
bool writeAll(int fd, const void *data, size_t n);

/** Read up to @p n bytes; retries EINTR. Returns bytes read, 0 on
 *  EOF, -1 on error. */
long readSome(int fd, void *buf, size_t n);

/**
 * Wait up to @p timeoutMs for @p fd to become readable (or reach
 * EOF/error, which also reads as readable). Returns 1 when readable,
 * 0 on timeout, -1 on poll error. EINTR re-arms with the remaining
 * time; @p timeoutMs < 0 waits forever. The deadline primitive behind
 * the fabric coordinator's straggler detection.
 */
int waitReadable(int fd, int timeoutMs);

/**
 * Dial through @p dial (any of the connect* functions below, curried;
 * returns an fd >= 0, or -1 with an error string), retrying up to
 * @p retries additional attempts after the first one fails. Attempts
 * are separated by a jittered exponential backoff starting at
 * @p backoffMs (doubling per attempt, +/-50% jitter, capped at 10 s)
 * so a fleet of clients racing a worker's startup neither gives up
 * instantly nor stampedes in lockstep. On exhaustion returns -1 with
 * the last error; @p attempts (when given) reports how many dials
 * were made either way.
 */
int connectRetry(const std::function<int(std::string &)> &dial,
                 int retries, int backoffMs, std::string &error,
                 int *attempts = nullptr);

/**
 * Split "HOST:PORT" at its last ':' into a non-empty @p host and a
 * @p port in 1..65535 (the whole rest, a decimal integer). False on
 * anything else ("h:", "h:0", ":7000", "h:7x", "h"); the outputs are
 * then unspecified. The one address parser behind `client --connect`,
 * `loadgen --connect` and `coord --workers`, which each word their own
 * error.
 */
bool parseHostPort(const std::string &text, std::string &host, int &port);

// ---- socket setup: each returns an fd >= 0, or -1 with *error* ----

/** Listening TCP socket bound to host:port (port 0 = ephemeral). */
int listenTcp(const std::string &host, int port, std::string &error);

/** Listening unix-domain socket at @p path (unlinks a stale one). */
int listenUnix(const std::string &path, std::string &error);

/** Blocking TCP connect to host:port. */
int connectTcp(const std::string &host, int port, std::string &error);

/** Blocking unix-domain connect to @p path. */
int connectUnix(const std::string &path, std::string &error);

/** The local port a bound TCP fd actually got (after port 0). */
int boundTcpPort(int fd);

/**
 * Arrange for close(fd) to reset the connection immediately
 * (SO_LINGER 0) — the "abrupt client disconnect" a robust server must
 * survive; used by `momsim client --abort` and the tests.
 */
void setAbortiveClose(int fd);

} // namespace momsim::net

#endif // MOMSIM_COMMON_NET_HH
