/**
 * @file
 * Command-line flag values, parsed one way for every momsim
 * subcommand. Integers are strict: the whole token must be the number
 * ("4x", "2/3" and "" reject instead of truncating), and an unsigned
 * value never accepts a sign, so "-1" cannot wrap to 2^64-1.
 */

#ifndef MOMSIM_COMMON_FLAGS_HH
#define MOMSIM_COMMON_FLAGS_HH

#include <cstdint>
#include <string>

namespace momsim
{

/** Parse all of @p text as a base-10 int in [@p minValue, 2^20]. */
bool parseIntFlag(const char *text, int minValue, int &out);

/**
 * Parse all of @p text as an unsigned 64-bit integer in strtoull base 0
 * (decimal, 0x-prefixed hex, 0-prefixed octal). Rejects signs, blanks
 * and out-of-range values.
 */
bool parseU64Flag(const char *text, uint64_t &out);

/**
 * The argv form the subcommands share: consume argv[i + 1] as a
 * parseIntFlag value, advancing @p i past it. On failure prints
 * "<cmd>: <flag> expects a value" or
 * "<cmd>: bad <flag> '<value>' (want an integer >= <minValue>)" to
 * stderr and returns false.
 */
bool intFlag(const char *cmd, int argc, char **argv, int &i, int minValue,
             int &out);

/** As intFlag, for a value taken verbatim. */
bool stringFlag(const char *cmd, int argc, char **argv, int &i,
                std::string &out);

} // namespace momsim

#endif // MOMSIM_COMMON_FLAGS_HH
