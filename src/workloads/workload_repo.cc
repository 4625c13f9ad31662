#include "workloads/workload_repo.hh"

#include <exception>
#include <set>

#include "common/logging.hh"

namespace momsim::workloads
{

std::shared_ptr<const MediaWorkload>
WorkloadRepo::get(const std::string &name)
{
    Flight flight;
    {
        MutexLock lock(_mutex);
        auto it = _cache.find(name);
        if (it != _cache.end()) {
            if (it->second.built)
                return it->second.built;
            flight = it->second.flight;
        }
    }
    if (flight.valid())
        return flight.get();
    prebuild({ name });
    MutexLock lock(_mutex);
    return _cache.at(name).built;
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
WorkloadRepo::prebuild(const std::vector<std::string> &names)
{
    // Claim every name nobody has started; wait for any in flight.
    std::vector<std::string> claimed;
    std::vector<std::promise<std::shared_ptr<const MediaWorkload>>> promises;
    std::vector<Flight> theirs;
    {
        MutexLock lock(_mutex);
        for (const std::string &name : names) {
            auto it = _cache.find(name);
            if (it != _cache.end()) {
                if (!it->second.built)
                    theirs.push_back(it->second.flight);
                continue;
            }
            promises.emplace_back();
            _cache[name].flight = promises.back().get_future().share();
            claimed.push_back(name);
            ++_builds;
        }
    }

    if (!claimed.empty()) {
        std::vector<std::shared_ptr<const MediaWorkload>> built;
        std::exception_ptr error;
        try {
            BuildGraph graph;
            for (const std::string &name : claimed) {
                WorkloadSpec spec;
                if (!WorkloadSpec::byName(name, spec))
                    fatal("unknown workload '" + name +
                          "' (see --list-workloads)");
                spec.scale = _scale;
                built.push_back(MediaWorkload::schedule(spec, graph));
            }
            _pool->run(graph);
        } catch (...) {
            error = std::current_exception();
        }
        {
            // A failed name is forgotten, so a later call retries it.
            MutexLock lock(_mutex);
            for (size_t i = 0; i < claimed.size(); ++i) {
                if (error)
                    _cache.erase(claimed[i]);
                else
                    _cache[claimed[i]].built = built[i];
            }
        }
        for (size_t i = 0; i < promises.size(); ++i) {
            if (error)
                promises[i].set_exception(error);
            else
                promises[i].set_value(built[i]);
        }
        if (error)
            std::rethrow_exception(error);
    }
    for (const Flight &flight : theirs)
        flight.get();
}

size_t
WorkloadRepo::size() const
{
    MutexLock lock(_mutex);
    return _cache.size();
}

size_t
WorkloadRepo::builds() const
{
    MutexLock lock(_mutex);
    return _builds;
}

} // namespace momsim::workloads
