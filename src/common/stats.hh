/**
 * @file
 * Minimal named-statistics registry.
 *
 * Simulator components register scalar counters and derived ratios in a
 * StatGroup; benches and examples dump groups as aligned tables. This is a
 * deliberately small stand-in for a full stats package: every statistic the
 * paper reports (IPC, EIPC, hit rates, average latencies, instruction-mix
 * percentages) is representable as a counter or a ratio of counters.
 *
 * Counters are stored structure-of-arrays (a name column and a value
 * column) and hot-path users hold StatId indices into the value column.
 * Indices stay valid across later registrations, so components resolve
 * their ids once at construction and per-event accounting is a single
 * indexed increment.
 *
 * Threading: a StatGroup is deliberately unsynchronized — it has no
 * mutex and carries no thread-safety annotations (see
 * common/thread_annotations.hh for the annotated primitives the
 * concurrent layers use). Each simulation owns its groups exclusively;
 * the scheduler's one-worker-per-simulation dispatch is the external
 * synchronization. Hot-path increments must stay a single unlocked
 * indexed add — putting a capability here would tax the kernel's
 * tightest loop for a sharing pattern that never happens.
 */

#ifndef MOMSIM_COMMON_STATS_HH
#define MOMSIM_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace momsim
{

/**
 * Stable index of one counter inside its StatGroup. Unlike a cached
 * `uint64_t*` (which a vector reallocation would invalidate), an id
 * survives any number of later registrations.
 */
using StatId = uint32_t;

/** A named collection of uint64 counters with formatted dumping. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : _name(std::move(name)) {}

    /**
     * Register (or find) a counter and return its stable id. Hot-path
     * components call this once at construction and use at() per event.
     */
    StatId id(const std::string &key);

    /** Access a counter by id. O(1), never invalidated. */
    uint64_t &at(StatId id) { return _values[id]; }
    uint64_t at(StatId id) const { return _values[id]; }

    /**
     * Add (or fetch) a counter; returns a reference for immediate use.
     * The reference is only guaranteed valid until the next
     * registration — cache an id() instead of the reference.
     */
    uint64_t &counter(const std::string &key) { return _values[id(key)]; }

    /** Read a counter (0 if absent). */
    uint64_t get(const std::string &key) const;

    /** Ratio of two counters; returns 0 when the denominator is zero. */
    double ratio(const std::string &num, const std::string &den) const;

    /** Render "name.key = value" lines. */
    std::string dump() const;

    /** Reset every counter to zero. */
    void clear();

    const std::string &name() const { return _name; }

    size_t size() const { return _values.size(); }
    const std::string &keyAt(StatId id) const { return _keys[id]; }

  private:
    /** Counters made room for at the first registration. */
    static constexpr size_t kReserve = 32;

    std::string _name;
    std::vector<std::string> _keys;
    std::vector<uint64_t> _values;
};

/** Fixed-width percentage formatting helper shared by the benches. */
std::string pct(double fraction, int decimals = 1);

} // namespace momsim

#endif // MOMSIM_COMMON_STATS_HH
