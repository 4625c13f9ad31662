#include "svc/connection.hh"

#include <sys/socket.h>

#include "common/logging.hh"
#include "fabric/protocol.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{

StreamEnd
serveLines(int fd, SimService &service, ResponseSequencer::Config cfg)
{
    cfg.start = [&service, lane = service.newLane()](
                    const SimRequest &req, const SimService::RowFn &onRow,
                    SimService::DoneFn onDone) {
        service.start(req, lane, onRow, std::move(onDone));
    };
    cfg.pong = [&service](const std::string &id) {
        return fabric::pongToJson(fabric::pongOf(service, id));
    };
    ResponseSequencer seq(cfg);

    char buf[4096];
    std::string line;
    bool overlong = false;
    while (!overlong && !seq.writeFailed()) {
        long got = net::readSome(fd, buf, sizeof(buf));
        if (got <= 0)
            break;      // EOF, half-close, reset or forced drain
        for (long i = 0; i < got && !overlong; ++i) {
            if (buf[i] == '\n') {
                seq.push(std::move(line));
                line.clear();
            } else if (line.size() == Connection::kMaxLineBytes) {
                overlong = true;
            } else {
                line += buf[i];
            }
        }
    }
    if (!overlong)
        seq.push(std::move(line));  // final request, no trailing newline
    seq.finish();
    if (seq.writeFailed())
        return StreamEnd::WriteFailed;
    if (!overlong)
        return StreamEnd::Eof;
    // The limit's answer goes out after every earlier one.
    SimResponse resp = SimResponse::failure(
        "", errc::kBadRequest,
        strfmt("request line exceeds %zu bytes; closing connection",
               Connection::kMaxLineBytes));
    resp.client = cfg.clientTag;
    return cfg.emit(resp.toJson(cfg.withTiming)) ? StreamEnd::Overlong
                                                 : StreamEnd::WriteFailed;
}

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
    cfg.emit = [fd](const std::string &line) {
        // One response per write call keeps lines intact on the wire;
        // a failed write (client gone) flips the sequencer to drain.
        std::string out = line + "\n";
        return net::writeAll(fd, out.data(), out.size());
    };
    cfg.maxPending = _opts.maxPending;
    cfg.shedOnFull = true;      // a full connection sheds, never stalls
    cfg.withTiming = _opts.withTiming;
    cfg.clientTag = _clientTag;
    const StreamEnd end = serveLines(fd, _service, std::move(cfg));
    // Half-close so the client sees EOF right after the last response
    // instead of waiting for this object to be reaped; an overlong
    // line shuts the read side too, so none of the rest of its input
    // is ever read. The fd itself stays owned until destruction
    // (shutdownRead() may still race).
    ::shutdown(fd, end == StreamEnd::Overlong ? SHUT_RDWR : SHUT_WR);
    _done.store(true, std::memory_order_release);
}

} // namespace momsim::svc
