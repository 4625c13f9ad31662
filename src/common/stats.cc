#include "common/stats.hh"

#include "common/logging.hh"

namespace momsim
{

StatId
StatGroup::id(const std::string &key)
{
    for (size_t i = 0; i < _keys.size(); ++i) {
        if (_keys[i] == key)
            return static_cast<StatId>(i);
    }
    if (_keys.empty()) {
        // A component registers its few dozen counters at construction,
        // once per simulated point: one allocation per column instead
        // of a doubling series.
        _keys.reserve(kReserve);
        _values.reserve(kReserve);
    }
    _keys.push_back(key);
    _values.push_back(0);
    return static_cast<StatId>(_values.size() - 1);
}

uint64_t
StatGroup::get(const std::string &key) const
{
    for (size_t i = 0; i < _keys.size(); ++i) {
        if (_keys[i] == key)
            return _values[i];
    }
    return 0;
}

double
StatGroup::ratio(const std::string &num, const std::string &den) const
{
    uint64_t d = get(den);
    if (d == 0)
        return 0.0;
    return static_cast<double>(get(num)) / static_cast<double>(d);
}

std::string
StatGroup::dump() const
{
    std::string out;
    for (size_t i = 0; i < _keys.size(); ++i) {
        out += strfmt("%s.%s = %llu\n", _name.c_str(), _keys[i].c_str(),
                      static_cast<unsigned long long>(_values[i]));
    }
    return out;
}

void
StatGroup::clear()
{
    for (auto &value : _values)
        value = 0;
}

std::string
pct(double fraction, int decimals)
{
    return strfmt("%.*f%%", decimals, fraction * 100.0);
}

} // namespace momsim
