/**
 * @file
 * Lazily-built, cached, immutable workloads keyed by spec name — the
 * shared source every sweep point draws from. One MediaWorkload is
 * built per (name, scale) for the whole process, shared across all
 * sweep points and benches that reference it. Builds run as task
 * graphs on a BuildPool sized by the process's --jobs: a single
 * workload's programs synthesize in parallel, prebuild() puts every
 * missing name into one graph, and however many threads ask at once,
 * at most --jobs synthesis tasks run.
 */

#ifndef MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
#define MOMSIM_WORKLOADS_WORKLOAD_REPO_HH

#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "workloads/build_pool.hh"
#include "workloads/media_workload.hh"

namespace momsim::workloads
{

class WorkloadRepo
{
  public:
    /** Builds on its own pool of @p jobs threads (<= 0: hardware). */
    explicit WorkloadRepo(WorkloadScale scale = WorkloadScale::Paper,
                          int jobs = 0)
        : WorkloadRepo(scale, std::make_shared<BuildPool>(jobs))
    {}

    /** Builds on @p pool, whose thread budget it shares. */
    WorkloadRepo(WorkloadScale scale, std::shared_ptr<BuildPool> pool)
        : _scale(scale), _pool(std::move(pool))
    {}

    WorkloadScale scale() const { return _scale; }

    /**
     * The workload for registry spec @p name, built on first use and
     * cached for the process lifetime. Thread-safe and single-flight:
     * the first caller for a missing name builds it, and concurrent
     * callers for the same name wait for that build instead of
     * starting their own; a failed build is rethrown to every waiter
     * and is not cached. Unknown names are fatal — CLI layers validate
     * against WorkloadSpec::isKnown first.
     */
    std::shared_ptr<const MediaWorkload> get(const std::string &name);

    /** Content fingerprint of @p name's workload (builds on demand). */
    uint64_t fingerprintOf(const std::string &name);

    /** Deduplicated subset of @p names neither built nor being built,
     *  in first-seen order. */
    std::vector<std::string> missing(
        const std::vector<std::string> &names) const;

    /**
     * Build every name of @p names that is missing as one task graph
     * on the pool, and wait for any that another caller is already
     * building. Returns once all are built; rethrows the first
     * failure.
     */
    void prebuild(const std::vector<std::string> &names);

    /** Names built or being built. */
    size_t size() const;

    /** Workload builds this repo has started. */
    size_t builds() const;

  private:
    using Flight = std::shared_future<std::shared_ptr<const MediaWorkload>>;

    struct Entry
    {
        /** Set once built: lookups then read it without the future. */
        std::shared_ptr<const MediaWorkload> built;
        /** The build, for callers that arrive while it runs. */
        Flight flight;
    };

    WorkloadScale _scale;
    std::shared_ptr<BuildPool> _pool;
    mutable momsim::Mutex _mutex;
    std::unordered_map<std::string, Entry> _cache GUARDED_BY(_mutex);
    size_t _builds GUARDED_BY(_mutex) = 0;
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
