/**
 * @file
 * Lazily-built, cached, immutable workloads keyed by spec name — the
 * shared source every sweep point draws from. One MediaWorkload is
 * built per (name, scale) for the whole process, shared across all
 * sweep points and benches that reference it; distinct specs build
 * concurrently (prebuild()).
 */

#ifndef MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
#define MOMSIM_WORKLOADS_WORKLOAD_REPO_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "workloads/media_workload.hh"

namespace momsim::workloads
{

class WorkloadRepo
{
  public:
    explicit WorkloadRepo(WorkloadScale scale = WorkloadScale::Paper)
        : _scale(scale)
    {}

    WorkloadScale scale() const { return _scale; }

    /**
     * The workload for registry spec @p name, built on first use and
     * cached for the process lifetime. Thread-safe: concurrent calls
     * for distinct names build concurrently; concurrent calls for the
     * same missing name may both build, and the first insert wins (the
     * builds are deterministic, so the loser's copy is identical and
     * simply dropped). Unknown names are fatal — CLI layers validate
     * against WorkloadSpec::isKnown first.
     */
    std::shared_ptr<const MediaWorkload> get(const std::string &name);

    /** Content fingerprint of @p name's workload (builds on demand). */
    uint64_t fingerprintOf(const std::string &name);

    /** Deduplicated subset of @p names not yet built, in first-seen
     *  order. */
    std::vector<std::string> missing(
        const std::vector<std::string> &names) const;

    /**
     * Build every name of @p names that is missing, distinct names
     * concurrently on at most @p jobs threads (<= 0: the hardware
     * concurrency), the calling thread among them. Returns once all
     * are built; rethrows the first build failure.
     */
    void prebuild(const std::vector<std::string> &names, int jobs);

    size_t size() const;

  private:
    WorkloadScale _scale;
    mutable momsim::Mutex _mutex;
    std::unordered_map<std::string, std::shared_ptr<const MediaWorkload>>
        _cache GUARDED_BY(_mutex);
};

} // namespace momsim::workloads

#endif // MOMSIM_WORKLOADS_WORKLOAD_REPO_HH
