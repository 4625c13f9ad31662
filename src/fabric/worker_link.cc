#include "fabric/worker_link.hh"

#include <chrono>

#include "common/logging.hh"

namespace momsim::fabric
{

std::string
WorkerAddr::display() const
{
    if (isUnix)
        return "unix:" + path;
    return strfmt("%s:%d", host.c_str(), port);
}

bool
parseWorkerAddr(const std::string &text, WorkerAddr &out,
                std::string &error)
{
    if (text.rfind("unix:", 0) == 0) {
        out.isUnix = true;
        out.path = text.substr(5);
        if (out.path.empty()) {
            error = "unix worker address needs a path (unix:PATH)";
            return false;
        }
        return true;
    }
    out.isUnix = false;
    if (!net::parseHostPort(text, out.host, out.port)) {
        error = strfmt("bad worker address \"%s\" (want HOST:PORT, PORT "
                       "in 1..65535, or unix:PATH)", text.c_str());
        return false;
    }
    return true;
}

bool
WorkerLink::dial(int retries, int backoffMs, std::string &error)
{
    auto dialOnce = [this](std::string &err) {
        return _addr.isUnix ? net::connectUnix(_addr.path, err)
                            : net::connectTcp(_addr.host, _addr.port, err);
    };
    const int fd = net::connectRetry(dialOnce, retries, backoffMs, error);
    if (fd < 0)
        return false;
    _fd.reset(fd);
    _buffer.clear();
    return true;
}

bool
WorkerLink::sendLine(const std::string &line)
{
    if (!_fd.valid())
        return false;
    std::string framed = line;
    framed += '\n';
    return net::writeAll(_fd.get(), framed.data(), framed.size());
}

WorkerLink::ReadResult
WorkerLink::readLine(std::string &line, int timeoutMs)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(
                           timeoutMs < 0 ? 0 : timeoutMs);
    for (;;) {
        const size_t nl = _buffer.find('\n');
        if (nl != std::string::npos) {
            line.assign(_buffer, 0, nl);
            _buffer.erase(0, nl + 1);
            return ReadResult::Line;
        }
        if (!_fd.valid())
            return ReadResult::Eof;
        int remaining = -1;
        if (timeoutMs >= 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - clock::now())
                    .count();
            if (left <= 0)
                return ReadResult::Timeout;
            remaining = static_cast<int>(left);
        }
        const int readable = net::waitReadable(_fd.get(), remaining);
        if (readable == 0)
            return ReadResult::Timeout;
        if (readable < 0)
            return ReadResult::Error;
        char buf[4096];
        const long n = net::readSome(_fd.get(), buf, sizeof(buf));
        if (n == 0)
            return ReadResult::Eof;
        if (n < 0)
            return ReadResult::Error;
        _buffer.append(buf, static_cast<size_t>(n));
    }
}

} // namespace momsim::fabric
