#include "workloads/build_pool.hh"

#include <algorithm>
#include <exception>
#include <system_error>
#include <thread>

#include "common/logging.hh"

namespace momsim::workloads
{

BuildGraph::TaskId
BuildGraph::add(std::function<void()> fn, int rank)
{
    Task task;
    task.fn = std::move(fn);
    task.rank = rank;
    _tasks.push_back(std::move(task));
    return _tasks.size() - 1;
}

void
BuildGraph::after(TaskId before, TaskId task)
{
    _tasks[before].next.push_back(task);
    _tasks[task].waits += 1;
}

/** One run()'s progress; every field is read and written under
 *  BuildPool::_mutex, as are the graph's wait counts. */
struct BuildPool::Run
{
    std::vector<BuildGraph::TaskId> ready;
    size_t finished = 0;
    int active = 0;
    std::exception_ptr error;

    bool
    over(const BuildGraph &graph) const
    {
        return finished == graph.size() || (error && active == 0);
    }
};

BuildPool::BuildPool(int threads)
    : _threads(threads > 0
                   ? threads
                   : std::max(1, static_cast<int>(
                                     std::thread::hardware_concurrency())))
{}

void
BuildPool::run(BuildGraph &graph)
{
    Run run;
    for (BuildGraph::TaskId t = 0; t < graph.size(); ++t)
        if (graph._tasks[t].waits == 0)
            run.ready.push_back(t);

    const size_t helpers =
        std::min(static_cast<size_t>(_threads - 1),
                 graph.size() > 0 ? graph.size() - 1 : 0);
    std::vector<std::thread> threads;
    try {
        for (size_t i = 0; i < helpers; ++i)
            threads.emplace_back([this, &graph, &run] { drain(graph, run); });
    } catch (const std::system_error &e) {
        // The helpers started, and this thread, finish the graph.
        warn(strfmt("workload synthesis on %zu of %zu helper threads: %s",
                    threads.size(), helpers, e.what()));
    }
    drain(graph, run);
    for (std::thread &t : threads)
        t.join();
    if (run.error)
        std::rethrow_exception(run.error);
}

void
BuildPool::drain(BuildGraph &graph, Run &run)
{
    MutexLock lock(_mutex);
    for (;;) {
        while (!run.over(graph) &&
               (run.error || run.ready.empty() || _running >= _threads))
            _cv.wait(_mutex);
        if (run.over(graph))
            return;

        auto best = std::min_element(
            run.ready.begin(), run.ready.end(),
            [&graph](BuildGraph::TaskId a, BuildGraph::TaskId b) {
                int ra = graph._tasks[a].rank, rb = graph._tasks[b].rank;
                return ra != rb ? ra < rb : a < b;
            });
        const BuildGraph::TaskId task = *best;
        run.ready.erase(best);
        ++_running;
        ++run.active;

        lock.unlock();
        std::exception_ptr error;
        try {
            graph._tasks[task].fn();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();

        --_running;
        --run.active;
        if (error) {
            if (!run.error)
                run.error = error;
        } else {
            ++run.finished;
            for (BuildGraph::TaskId next : graph._tasks[task].next)
                if (--graph._tasks[next].waits == 0)
                    run.ready.push_back(next);
        }
        _cv.notify_all();
    }
}

} // namespace momsim::workloads
