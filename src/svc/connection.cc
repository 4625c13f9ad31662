#include "svc/connection.hh"

#include <sys/socket.h>

#include "common/logging.hh"
#include "fabric/protocol.hh"
#include "svc/sequencer.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{

Connection::Connection(int fd, SimService &service, Options opts,
                       std::string clientTag)
    : _fd(fd), _service(service), _opts(opts),
      _clientTag(std::move(clientTag))
{}

Connection::~Connection()
{
    join();
}

void
Connection::start()
{
    _thread = std::thread([this] { run(); });
}

void
Connection::shutdownRead()
{
    if (_fd.valid())
        ::shutdown(_fd.get(), SHUT_RD);
}

void
Connection::join()
{
    if (_thread.joinable())
        _thread.join();
}

void
Connection::run()
{
    const int fd = _fd.get();

    ResponseSequencer::Config cfg;
    cfg.submit = [this](const SimRequest &req,
                        const SimService::RowFn &onRow) {
        return _service.submit(req, onRow);
    };
    cfg.pong = [this](const std::string &id) {
        return fabric::pongToJson(fabric::pongOf(_service, id));
    };
    cfg.emit = [fd](const std::string &line) {
        // One response per write call keeps lines intact on the wire;
        // a failed write (client gone) flips the sequencer to drain.
        std::string out = line + "\n";
        return net::writeAll(fd, out.data(), out.size());
    };
    cfg.parallel = _opts.parallel;
    cfg.maxPending = _opts.maxPending;
    cfg.shedOnFull = true;      // a full queue sheds, never stalls
    cfg.withTiming = _opts.withTiming;
    cfg.clientTag = _clientTag;
    ResponseSequencer seq(cfg);

    char buf[4096];
    std::string line;
    bool overlong = false;
    while (!overlong) {
        long got = net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            break;      // EOF, half-close, reset or forced drain
        for (long i = 0; i < got; ++i) {
            if (buf[i] == '\n') {
                seq.push(std::move(line));
                line.clear();
            } else if (line.size() == kMaxLineBytes) {
                overlong = true;
                break;
            } else {
                line += buf[i];
            }
        }
        if (seq.writeFailed())
            break;      // client stopped reading; its input is moot
    }
    if (!overlong)
        seq.push(std::move(line));  // final request, no trailing newline
    seq.finish();
    if (overlong && !seq.writeFailed()) {
        SimResponse resp = SimResponse::failure(
            "", errc::kBadRequest,
            strfmt("request line exceeds %zu bytes; closing connection",
                   kMaxLineBytes));
        resp.client = _clientTag;
        std::string out = resp.toJson(_opts.withTiming) + "\n";
        net::writeAll(fd, out.data(), out.size());
    }
    // Half-close so the client sees EOF right after the last response
    // instead of waiting for this object to be reaped; an overlong
    // line shuts the read side too, so none of the rest of its input
    // is ever read. The fd itself stays owned until destruction
    // (shutdownRead() may still race).
    ::shutdown(fd, overlong ? SHUT_RDWR : SHUT_WR);
    _done.store(true, std::memory_order_release);
}

} // namespace momsim::svc
