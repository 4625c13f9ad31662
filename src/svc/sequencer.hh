/**
 * @file
 * ResponseSequencer — the in-order request/response state machine
 * shared by the two transports (`momsim batch` over stdin/stdout and
 * `momsim serve` over sockets), extracted from the PR 5 batch loop so
 * the transports cannot fork its semantics.
 *
 * One sequencer instance drives one input stream: the transport's
 * reader thread push()es raw request lines; N submitter threads parse
 * each line once and dispatch it — `{"kind":"ping"}` gets the pong
 * hook's line, any other "kind" an unknown_kind error, and everything
 * else is a SimRequest executed through the submit hook (SimService
 * in production); one emitter thread hands finished responses to the
 * emit hook strictly in input order, no matter how the submitters
 * interleave. A request with `stream` set gets each row as its own
 * line in its slot, live once the slot is the oldest in flight and
 * always before the slot's final response.
 *
 * The pending queue is bounded (maxPending): in blocking mode (batch —
 * stdin has natural backpressure) a full queue blocks push(); in
 * shedding mode (serve — a stalled socket must not stall the daemon) a
 * full queue answers the request immediately with a structured
 * kOverloaded error in its sequence slot, without executing it.
 *
 * Delivery failure (emit returning false: the client closed the pipe
 * or socket) flips the sequencer into drain mode — queued and future
 * lines are discarded *without being simulated*, since their output
 * can no longer be delivered, and the transport observes writeFailed()
 * to stop reading.
 *
 * Error responses echo the request's id even when the line does not
 * parse (salvageTopLevelId), so a client can always correlate a
 * failure with the request that caused it.
 */

#ifndef MOMSIM_SVC_SEQUENCER_HH
#define MOMSIM_SVC_SEQUENCER_HH

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "driver/experiment.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"

namespace momsim::svc
{

class ResponseSequencer
{
  public:
    struct Config
    {
        /** Executes one parsed request (SimService::submit in
         *  production; injectable for tests), handing a streamed
         *  request's rows to the row callback (null otherwise). Must
         *  be callable from several submitter threads at once. */
        std::function<SimResponse(const SimRequest &,
                                  const driver::ExperimentRunner::RowFn &)>
            submit;

        /** The pong line answering a ping whose "id" is @p id ("" if
         *  none). */
        std::function<std::string(const std::string &id)> pong;

        /** Delivers one serialized response line (no newline). Called
         *  only from the emitter thread, strictly in input order.
         *  Returning false marks delivery as dead. */
        std::function<bool(const std::string &jsonLine)> emit;

        int parallel = 2;       ///< submitter threads (clamped 1..16)
        size_t maxPending = 0;  ///< input backlog bound; 0 => auto
        bool shedOnFull = false; ///< true: kOverloaded instead of block
        bool withTiming = true; ///< serialize wall-clock fields
        std::string clientTag;  ///< default client id for responses
    };

    /** Starts the submitter and emitter threads immediately. */
    explicit ResponseSequencer(Config cfg);

    /** Implies finish() if the transport has not called it. */
    ~ResponseSequencer();

    ResponseSequencer(const ResponseSequencer &) = delete;
    ResponseSequencer &operator=(const ResponseSequencer &) = delete;

    /**
     * Feed one raw input line (without its newline). Blank lines are
     * skipped — convenient for hand-written request files and
     * harmless on the wire. Blocking mode may wait for queue space;
     * shedding mode never blocks.
     */
    void push(std::string line);

    /**
     * Input is exhausted (EOF / connection closed for reading): wait
     * for every accepted request to be answered and emitted, then
     * join all worker threads. Idempotent.
     */
    void finish();

    /** Delivery died (emit returned false); reader should stop. */
    bool writeFailed() const
    {
        return _writeFailed.load(std::memory_order_acquire);
    }

    size_t accepted() const;    ///< lines accepted (incl. shed slots)
    size_t emitted() const;     ///< responses actually delivered
    size_t shedCount() const;   ///< kOverloaded responses issued

  private:
    struct Item
    {
        size_t seq;
        std::string line;
    };

    void submitLoop();
    void emitLoop();
    /** The final line of @p item's slot; a streamed request's rows go
     *  to the slot's chunk queue first. */
    std::string answer(const Item &item);

    Config _cfg;    ///< set in the ctor, immutable afterwards

    mutable momsim::Mutex _mutex;
    momsim::CondVar _workCv;    ///< submitters wait for input
    momsim::CondVar _emitCv;    ///< emitter waits for responses
    momsim::CondVar _spaceCv;   ///< push() waits for queue space
    std::deque<Item> _pending GUARDED_BY(_mutex);
    /** seq -> response JSON. */
    std::map<size_t, std::string> _ready GUARDED_BY(_mutex);
    /** seq -> streamed row lines, emitted before that slot's final
     *  response (answer() enqueues them strictly before _ready). */
    std::map<size_t, std::deque<std::string>> _chunks GUARDED_BY(_mutex);
    bool _inputDone GUARDED_BY(_mutex) = false;
    size_t _accepted GUARDED_BY(_mutex) = 0;
    size_t _emittedCount GUARDED_BY(_mutex) = 0;
    size_t _shed GUARDED_BY(_mutex) = 0;
    std::atomic<bool> _writeFailed{ false };

    std::vector<std::thread> _submitters;
    std::thread _emitter;
    bool _finished GUARDED_BY(_mutex) = false;
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_SEQUENCER_HH
