/**
 * @file
 * The one transport loop behind `momsim batch` (stdin/stdout) and every
 * `momsim serve` connection, and Connection — one accepted serve
 * client on a thread of its own.
 *
 * serveLines() reads newline-delimited SimRequest JSON (and fabric
 * pings) from a file descriptor and drives a ResponseSequencer wired
 * to the service: every request it pushes starts on one scheduler
 * lane of its own stream, so the stream's requests are served in
 * order and the stream holds one round-robin share of the workers.
 * The reading thread parses, plans and starts each request; the
 * sequencer's emitter writes the responses, in request order. Those
 * two threads are all a stream costs, besides the scheduler's workers.
 *
 * A connection runs until the client stops sending (EOF / half-close),
 * the client stops *reading* (a write error flips the sequencer into
 * drain mode and the rest of the input is never started), the client
 * sends a request line longer than kMaxLineBytes, or the server
 * forces drain via shutdownRead(). In every case in-flight responses
 * are flushed before the socket closes — an abrupt client disconnect
 * never takes down the daemon, only its own connection.
 */

#ifndef MOMSIM_SVC_CONNECTION_HH
#define MOMSIM_SVC_CONNECTION_HH

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

#include "common/net.hh"
#include "svc/sequencer.hh"

namespace momsim::svc
{

class SimService;

/** How serveLines() stopped reading. */
enum class StreamEnd
{
    Eof,            ///< the input ended; every answer went out
    WriteFailed,    ///< the output died; the rest of the input was dropped
    Overlong,       ///< a line exceeded Connection::kMaxLineBytes
};

/**
 * Read request lines from @p fd until EOF and answer them through
 * @p cfg's emit hook, in order. @p cfg supplies emit and the admission
 * and output options; the start and pong hooks are wired to
 * @p service here. A line longer than Connection::kMaxLineBytes stops
 * the reading: once the earlier answers are out, it gets one
 * structured bad_request naming the limit.
 */
StreamEnd serveLines(int fd, SimService &service,
                     ResponseSequencer::Config cfg);

class Connection
{
  public:
    /**
     * The longest request line a stream buffers. A client that
     * streams past it without a newline gets one structured
     * bad_request naming the limit, after the responses to its earlier
     * lines, and the connection closes — so one client cannot grow the
     * daemon's memory without bound.
     */
    static constexpr size_t kMaxLineBytes = size_t { 1 } << 20;

    struct Options
    {
        /** Requests accepted but not yet answered, per connection. */
        size_t maxPending = ResponseSequencer::kDefaultMaxPending;
        bool withTiming = true;
    };

    /** Takes ownership of @p fd. @p clientTag is this connection's
     *  default client id ("c1", "c2", ...), echoed in every response
     *  whose request does not carry its own. */
    Connection(int fd, SimService &service, Options opts,
               std::string clientTag);

    /** join() must have completed (or start() never called). */
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void start();

    /** The handler finished; join() will not block. */
    bool done() const { return _done.load(std::memory_order_acquire); }

    /**
     * Force drain: half-close the read side so the handler sees EOF
     * after the requests already received, answers them, flushes and
     * exits. Used on the second shutdown signal.
     */
    void shutdownRead();

    void join();

  private:
    void run();

    net::FdGuard _fd;
    SimService &_service;
    Options _opts;
    std::string _clientTag;
    std::thread _thread;
    std::atomic<bool> _done{ false };
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_CONNECTION_HH
