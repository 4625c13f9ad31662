/**
 * @file
 * A bounded executor for workload-synthesis task graphs.
 *
 * A workload build is a small dependency graph (see
 * MediaWorkload::schedule): each program of each ISA is one task, a
 * decoder waits for its codec's encoder, a duplicate slot waits for
 * the instance it rebases, and the content fingerprint folds programs
 * in order as they finish. BuildPool::run executes such a graph on the
 * calling thread plus short-lived helpers, and caps the tasks running
 * at once, across every concurrent run() on the same pool, at the
 * pool's thread budget (the process's --jobs). With a budget of one,
 * the calling thread runs every task itself, in rank order.
 */

#ifndef MOMSIM_WORKLOADS_BUILD_POOL_HH
#define MOMSIM_WORKLOADS_BUILD_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "common/thread_annotations.hh"

namespace momsim::workloads
{

/** Tasks and their ordering edges; BuildPool::run executes it once. */
class BuildGraph
{
  public:
    using TaskId = size_t;

    /**
     * Add a task. Among ready tasks, lower @p rank starts first, then
     * insertion order — so a graph's long chains can be put in front.
     */
    TaskId add(std::function<void()> fn, int rank);

    /** @p task starts only once @p before has finished. */
    void after(TaskId before, TaskId task);

    size_t size() const { return _tasks.size(); }

  private:
    friend class BuildPool;

    struct Task
    {
        std::function<void()> fn;
        int rank = 0;
        std::vector<TaskId> next;   ///< tasks waiting on this one
        int waits = 0;              ///< unfinished prerequisites
    };
    std::vector<Task> _tasks;
};

class BuildPool
{
  public:
    /** At most @p threads tasks at once (<= 0: hardware concurrency). */
    explicit BuildPool(int threads);

    /**
     * Run every task of @p graph, on the calling thread and helpers up
     * to the pool's budget, and return once all have finished. After
     * a task throws, no further task of the graph starts; the first
     * exception is rethrown once the running ones have stopped.
     */
    void run(BuildGraph &graph);

  private:
    struct Run;
    void drain(BuildGraph &graph, Run &run);

    const int _threads;
    momsim::Mutex _mutex;
    momsim::CondVar _cv;
    int _running GUARDED_BY(_mutex) = 0;   ///< tasks executing, all runs
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_BUILD_POOL_HH
