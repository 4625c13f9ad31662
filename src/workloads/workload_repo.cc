#include "workloads/workload_repo.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <set>
#include <thread>

#include "common/logging.hh"

namespace momsim::workloads
{

std::shared_ptr<const MediaWorkload>
WorkloadRepo::get(const std::string &name)
{
    {
        MutexLock lock(_mutex);
        auto it = _cache.find(name);
        if (it != _cache.end())
            return it->second;
    }

    WorkloadSpec spec;
    if (!WorkloadSpec::byName(name, spec))
        fatal("unknown workload '" + name + "' (see --list-workloads)");
    spec.scale = _scale;

    // Build outside the lock so distinct specs synthesize concurrently.
    std::shared_ptr<const MediaWorkload> built = MediaWorkload::build(spec);

    MutexLock lock(_mutex);
    auto [it, inserted] = _cache.emplace(name, std::move(built));
    (void)inserted;     // lost race: the earlier identical build wins
    return it->second;
}

uint64_t
WorkloadRepo::fingerprintOf(const std::string &name)
{
    return get(name)->fingerprint();
}

std::vector<std::string>
WorkloadRepo::missing(const std::vector<std::string> &names) const
{
    MutexLock lock(_mutex);
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const std::string &name : names) {
        if (_cache.count(name) == 0 && seen.insert(name).second)
            out.push_back(name);
    }
    return out;
}

void
WorkloadRepo::prebuild(const std::vector<std::string> &names, int jobs)
{
    const std::vector<std::string> todo = missing(names);
    size_t threads = jobs > 0 ? static_cast<size_t>(jobs)
                              : std::thread::hardware_concurrency();
    threads = std::min(std::max<size_t>(threads, 1), todo.size());

    // The calling thread builds too; helpers make up the rest. The
    // first failure is rethrown once every build has stopped.
    std::atomic<size_t> next { 0 };
    momsim::Mutex errorMutex;
    std::exception_ptr error;
    auto drain = [&] {
        try {
            for (size_t i = next++; i < todo.size(); i = next++)
                get(todo[i]);
        } catch (...) {
            MutexLock lock(errorMutex);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < threads; ++t)
        helpers.emplace_back(drain);
    drain();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

size_t
WorkloadRepo::size() const
{
    MutexLock lock(_mutex);
    return _cache.size();
}

} // namespace momsim::workloads
