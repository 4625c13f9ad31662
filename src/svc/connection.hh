/**
 * @file
 * Connection — one accepted `momsim serve` client: a thread that
 * reads newline-delimited SimRequest JSON (and fabric pings) from the
 * socket, drives the shared ResponseSequencer (the same state machine
 * `momsim batch` runs over stdin/stdout), and streams SimResponse
 * JSONL back, in request order, tagged with this connection's client
 * id.
 *
 * Lifecycle: start() spawns the thread; the connection runs until the
 * client stops sending (EOF / half-close), the client stops *reading*
 * (a write error flips the sequencer into drain mode and queued work
 * is discarded unsimulated), the client sends a request line longer
 * than kMaxLineBytes, or the server forces drain via shutdownRead().
 * In every case in-flight responses are flushed before the socket
 * closes — an abrupt client disconnect never takes down the daemon,
 * only its own connection.
 */

#ifndef MOMSIM_SVC_CONNECTION_HH
#define MOMSIM_SVC_CONNECTION_HH

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

#include "common/net.hh"

namespace momsim::svc
{

class SimService;

class Connection
{
  public:
    /**
     * The longest request line a connection buffers. A client that
     * streams past it without a newline gets one structured
     * bad_request naming the limit, after the responses to its earlier
     * lines, and the connection closes — so one client cannot grow the
     * daemon's memory without bound.
     */
    static constexpr size_t kMaxLineBytes = size_t { 1 } << 20;

    struct Options
    {
        int parallel = 2;       ///< submitter threads per connection
        size_t maxPending = 0;  ///< admission queue bound; 0 => auto
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

    const std::string &clientTag() const { return _clientTag; }

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
