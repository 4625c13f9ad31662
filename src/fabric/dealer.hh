/**
 * @file
 * Dealer — the coordinator's fault-tolerant work ledger.
 *
 * The dealer owns every to-simulate point of a sweep and hands them to
 * worker threads in cost-balanced deals: the initial partition is the
 * same LPT deal (dealByCost) the in-process shard planner uses, so a
 * healthy fleet gets exactly the shards `--shard I/N` would. From
 * there it is a state machine built for failure:
 *
 *   Assigned --claim()--> Claimed --complete()--> Done
 *       ^                    |
 *       +------ fail() ------+   (re-dealt to the next idle claimer)
 *
 * complete() is idempotent — a point re-dealt after a presumed-dead
 * worker's row later arrives anyway just completes once; the duplicate
 * is harmless, mirroring the content-addressed store's last-wins rows.
 * When every worker has failed with work remaining, claim() unblocks
 * everywhere and failed() reports the sweep cannot finish.
 */

#ifndef MOMSIM_FABRIC_DEALER_HH
#define MOMSIM_FABRIC_DEALER_HH

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"

namespace momsim::fabric
{

/** One to-simulate sweep point, as the dealer tracks it. */
struct DealPoint
{
    std::string id;     ///< canonical point id (spec.canonicalId())
    double cost = 1.0;  ///< planner cost estimate (specCost)
};

class Dealer
{
  public:
    /** Deal @p points across @p workerCount initial queues by LPT. */
    Dealer(std::vector<DealPoint> points, int workerCount);

    /**
     * Block until work is available for @p worker, then claim it: the
     * worker's remaining initial deal plus anything re-dealt from
     * failed workers. Returns an empty vector when no work will ever
     * come — the sweep is done(), failed(), or this worker was
     * fail()ed by its own link thread.
     */
    std::vector<DealPoint> claim(int worker);

    /** Mark @p id finished. Returns false on a duplicate (already
     *  completed via another worker) — harmless, just ignored. */
    bool complete(const std::string &id);

    /**
     * Mark @p worker dead and re-deal its unfinished points (claimed
     * and still-queued alike) to whoever claims next. Returns how many
     * points went back on the table. Idempotent.
     */
    size_t fail(int worker);

    bool done() const;          ///< every point completed
    bool failed() const;        ///< all workers dead, work remaining
    size_t remaining() const;   ///< points not yet completed
    size_t redealCount() const; ///< points ever re-dealt by fail()
    int liveWorkers() const;

  private:
    enum class State { Assigned, Claimed, Done };

    struct Entry
    {
        DealPoint point;
        State state = State::Assigned;
        int owner = -1;         ///< claiming worker (Claimed only)
    };

    bool terminalLocked(int worker) const REQUIRES(_mutex);

    mutable momsim::Mutex _mutex;
    momsim::CondVar _cv;
    std::vector<Entry> _entries GUARDED_BY(_mutex);
    std::unordered_map<std::string, size_t> _byId GUARDED_BY(_mutex);
    /** Per-worker LPT deal. */
    std::vector<std::deque<size_t>> _initial GUARDED_BY(_mutex);
    /** Re-dealt, unclaimed. */
    std::deque<size_t> _requeued GUARDED_BY(_mutex);
    std::vector<bool> _dead GUARDED_BY(_mutex);
    size_t _remaining GUARDED_BY(_mutex) = 0;
    size_t _redealt GUARDED_BY(_mutex) = 0;
};

} // namespace momsim::fabric

#endif // MOMSIM_FABRIC_DEALER_HH
