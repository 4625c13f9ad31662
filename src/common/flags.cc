#include "common/flags.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace momsim
{

namespace
{

/** Largest value parseIntFlag accepts. */
constexpr long kIntFlagMax = 1 << 20;

} // namespace

bool
parseIntFlag(const char *text, int minValue, int &out)
{
    char *end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (*text == '\0' || !end || *end != '\0' || parsed < minValue ||
        parsed > kIntFlagMax)
        return false;
    out = static_cast<int>(parsed);
    return true;
}

bool
parseU64Flag(const char *text, uint64_t &out)
{
    // strtoull skips blanks and silently negates a leading '-'; only a
    // token that starts with a digit can be a plain unsigned number.
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 0);
    if (!end || *end != '\0' || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

bool
intFlag(const char *cmd, int argc, char **argv, int &i, int minValue,
        int &out)
{
    const char *arg = argv[i];
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", cmd, arg);
        return false;
    }
    const char *v = argv[++i];
    if (!parseIntFlag(v, minValue, out)) {
        std::fprintf(stderr, "%s: bad %s '%s' (want an integer >= %d)\n",
                     cmd, arg, v, minValue);
        return false;
    }
    return true;
}

bool
stringFlag(const char *cmd, int argc, char **argv, int &i,
           std::string &out)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", cmd, argv[i]);
        return false;
    }
    out = argv[++i];
    return true;
}

} // namespace momsim
