/**
 * @file
 * ResponseSequencer — the in-order request/response state machine
 * shared by the two transports (`momsim batch` over stdin/stdout and
 * `momsim serve` over sockets), so the transports cannot fork its
 * semantics.
 *
 * One sequencer instance drives one input stream, and one thread of
 * its own: the emitter. The transport's reader push()es raw request
 * lines and each is parsed and dispatched right there, on the reader
 * — `{"kind":"ping"}` gets the pong hook's line, any other "kind" an
 * unknown_kind error, and everything else is a SimRequest started
 * through the start hook (SimService::start on the stream's lane in
 * production), whose completion fills the request's slot from
 * whichever thread finishes it. The emitter hands finished responses
 * to the emit hook strictly in input order, however the completions
 * interleave. A request with `stream` set gets each row as its own
 * line in its slot, live once the slot is the oldest in flight and
 * always before the slot's final response.
 *
 * Admission is bounded (maxPending requests accepted but not yet
 * emitted): in blocking mode (batch — stdin has natural backpressure)
 * a full sequencer blocks push(); in shedding mode (serve — a stalled
 * socket must not stall the daemon) it answers the request immediately
 * with a structured kOverloaded error in its sequence slot, without
 * starting it.
 *
 * Delivery failure (emit returning false: the client closed the pipe
 * or socket) flips the sequencer into drain mode — lines pushed after
 * it are dropped *without being started*, since their output can no
 * longer be delivered, and the transport observes writeFailed() to
 * stop reading. Requests already started run to completion.
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

#include "common/thread_annotations.hh"
#include "driver/experiment.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"

namespace momsim::svc
{

class ResponseSequencer
{
  public:
    /** The default admission bound: 14 requests accepted but not yet
     *  emitted. */
    static constexpr size_t kDefaultMaxPending = 14;

    struct Config
    {
        /** Starts one parsed request (SimService::start in production;
         *  injectable for tests), handing a streamed request's rows to
         *  the row callback (null otherwise). Must call its completion
         *  exactly once, from any thread, possibly before returning. */
        std::function<void(const SimRequest &,
                           const driver::ExperimentRunner::RowFn &,
                           std::function<void(SimResponse)>)>
            start;

        /** The pong line answering a ping whose "id" is @p id ("" if
         *  none). */
        std::function<std::string(const std::string &id)> pong;

        /** Delivers one serialized response line (no newline). Called
         *  only from the emitter thread, strictly in input order.
         *  Returning false marks delivery as dead. */
        std::function<bool(const std::string &jsonLine)> emit;

        /** Requests accepted but not yet emitted, at most. */
        size_t maxPending = kDefaultMaxPending;
        bool shedOnFull = false; ///< true: kOverloaded instead of block
        bool withTiming = true; ///< serialize wall-clock fields
        std::string clientTag;  ///< default client id for responses
    };

    /** Starts the emitter thread immediately. */
    explicit ResponseSequencer(Config cfg);

    /** Implies finish() if the transport has not called it. */
    ~ResponseSequencer();

    ResponseSequencer(const ResponseSequencer &) = delete;
    ResponseSequencer &operator=(const ResponseSequencer &) = delete;

    /**
     * Feed one raw input line (without its newline) and dispatch it.
     * Blank lines are skipped — convenient for hand-written request
     * files and harmless on the wire. Blocking mode may wait for
     * admission; shedding mode never blocks. Call from one thread.
     */
    void push(std::string line);

    /**
     * Input is exhausted (EOF / connection closed for reading): wait
     * for every accepted request to be answered and emitted, then
     * join the emitter. Idempotent.
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
    /** Dispatch the accepted line of slot @p seq. */
    void dispatch(size_t seq, const std::string &line);
    /** Slot @p seq's final line; the emitter may pass it from now on. */
    void fill(size_t seq, std::string json);
    void emitLoop();

    Config _cfg;    ///< set in the ctor, immutable afterwards

    mutable momsim::Mutex _mutex;
    momsim::CondVar _emitCv;    ///< emitter waits for responses
    momsim::CondVar _spaceCv;   ///< push() waits for admission
    /** seq -> response JSON. */
    std::map<size_t, std::string> _ready GUARDED_BY(_mutex);
    /** seq -> streamed row lines, emitted before that slot's final
     *  response (rows land strictly before their slot's fill()). */
    std::map<size_t, std::deque<std::string>> _chunks GUARDED_BY(_mutex);
    bool _inputDone GUARDED_BY(_mutex) = false;
    size_t _accepted GUARDED_BY(_mutex) = 0;
    size_t _retired GUARDED_BY(_mutex) = 0;    ///< slots the emitter passed
    size_t _emittedCount GUARDED_BY(_mutex) = 0;
    size_t _shed GUARDED_BY(_mutex) = 0;
    std::atomic<bool> _writeFailed{ false };

    std::thread _emitter;
    bool _finished GUARDED_BY(_mutex) = false;
};

} // namespace momsim::svc

#endif // MOMSIM_SVC_SEQUENCER_HH
