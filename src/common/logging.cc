#include "common/logging.hh"

#include <cstdlib>

#include "common/thread_annotations.hh"

namespace momsim
{

namespace
{

/** Serializes multi-line stderr dumps from concurrent pool workers. */
Mutex &
dumpMutex()
{
    static Mutex m;
    return m;
}

} // namespace

std::string
strfmt(const char *fmt, ...)
{
    // One pass into a stack buffer fits nearly every call (ids, cache
    // keys, messages); only longer output is formatted a second time,
    // straight into the result.
    char buf[256];
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    size_t size = static_cast<size_t>(len);
    if (size < sizeof(buf)) {
        va_end(args_copy);
        return std::string(buf, size);
    }
    std::string out(size, '\0');
    // Writes size chars plus the terminator std::string already owns.
    std::vsnprintf(out.data(), size + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
dumpRaw(const std::string &text)
{
    MutexLock lock(dumpMutex());
    std::fwrite(text.data(), 1, text.size(), stderr);
    std::fflush(stderr);
}

} // namespace momsim
