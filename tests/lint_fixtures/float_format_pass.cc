// momlint fixture: MUST be clean for float-format.
// The canonical %.17g round-trips every double; prose in comments
// (like "CSV uses %.2f" or chars_format::fixed) must not trip the rule
// either.
#include <charconv>
#include <cstdio>

void
emitRow(char *buf, unsigned long n, double ipc, double wallMs)
{
    std::snprintf(buf, n, "\"ipc\":%.17g", ipc);
    std::snprintf(buf, n, "\"count\":%d", 3);       // ints are fine
    // momlint: allow(float-format) timing field pinned by the protocol
    std::snprintf(buf, n, "\"wallMs\":%.3f", wallMs);
}

void
emitRowChars(char *buf, char *end, double ipc, unsigned long count)
{
    // general with precision 17 writes %.17g's text, on one line or two.
    std::to_chars(buf, end, ipc, std::chars_format::general, 17);
    std::to_chars(buf, end, ipc,
                  std::chars_format::general, 17);
    std::to_chars(buf, end, count);                 // ints are fine
    // A reader's format argument emits nothing.
    std::from_chars(buf, end, ipc, std::chars_format::general);
}
