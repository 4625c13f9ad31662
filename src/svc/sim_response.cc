#include "svc/sim_response.hh"

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "svc/json.hh"

namespace momsim::svc
{

std::string
SimResponse::toJson(bool withTiming) const
{
    std::string out;
    // The response's own members, then each row and its comma.
    out.reserve(256 + rows.size() * (driver::kResultRowBytesHint + 1));
    out += '{';
    out += strfmt("\"schemaVersion\":%d,", kSimResponseSchemaVersion);
    out += "\"id\":" + jsonQuote(id) + ",";
    if (!client.empty())
        out += "\"client\":" + jsonQuote(client) + ",";
    out += strfmt("\"ok\":%s,", ok ? "true" : "false");
    if (!ok) {
        out += "\"error\":{\"code\":" + jsonQuote(errorCode) +
               ",\"message\":" + jsonQuote(errorMessage) + "}";
        return out + "}";
    }
    out += "\"bench\":" + jsonQuote(bench) + ",";
    out += strfmt("\"plan\":{\"total\":%zu,\"cached\":%zu,"
                  "\"simulated\":%zu},",
                  totalPoints, cachedPoints, simulatedPoints);
    // momlint: allow(float-format) wire-format timing field: %.3f is the
    // protocol's pinned shape and the value is zeroed when timing is off
    out += strfmt("\"wallMs\":%.3f,", withTiming ? wallMs : 0.0);
    out += "\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i)
            out += ',';
        driver::appendResultRow(out, rows[i], withTiming);
    }
    out += "]}";
    return out;
}

SimResponse
SimResponse::failure(const std::string &id, const std::string &code,
                     const std::string &message)
{
    SimResponse resp;
    resp.id = id;
    resp.ok = false;
    resp.errorCode = code;
    resp.errorMessage = message;
    return resp;
}

} // namespace momsim::svc
