// momlint fixture: MUST produce float-format findings.
// %.6f quantizes: a stored row re-rendered through it is no longer
// byte-identical to the run that produced it. The same holds for
// std::to_chars in any format but general with precision 17: bare
// general writes the shortest round-trip text, not %.17g's.
#include <charconv>
#include <cstdio>

void
emitRow(char *buf, unsigned long n, double ipc)
{
    std::snprintf(buf, n, "\"ipc\":%.6f", ipc);     // flagged
    std::snprintf(buf, n, "\"eipc\":%g", ipc);      // flagged
}

void
emitRowChars(char *buf, char *end, double ipc)
{
    std::to_chars(buf, end, ipc, std::chars_format::fixed);       // flagged
    std::to_chars(buf, end, ipc, std::chars_format::general, 6);  // flagged
    std::to_chars(buf, end, ipc, std::chars_format::general);     // flagged
    std::to_chars(buf, end, ipc,
                  std::chars_format::scientific, 17);             // flagged
}
