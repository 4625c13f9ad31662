#include "fabric/protocol.hh"

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"

namespace momsim::fabric
{

std::string
fabricVersionString()
{
    return strfmt("fabric%d/req%d/resp%d/rows%d/sim%d",
                  kFabricSchemaVersion, svc::kSimRequestSchemaVersion,
                  svc::kSimResponseSchemaVersion,
                  driver::kResultSchemaVersion, driver::kSimCodeVersion);
}

std::string
kindOf(const svc::JsonValue &doc)
{
    if (!doc.isObject())
        return "";
    const svc::JsonValue *kind = doc.field("kind");
    if (!kind || !kind->isString())
        return "";
    return kind->text;
}

std::string
pingToJson(const std::string &id)
{
    std::string out = "{\"kind\":\"ping\",\"fabricVersion\":" +
                      std::to_string(kFabricSchemaVersion);
    if (!id.empty())
        out += ",\"id\":" + svc::jsonQuote(id);
    out += "}";
    return out;
}

Pong
pongOf(const svc::SimService &service, const std::string &id)
{
    Pong pong;
    pong.id = id;
    pong.version = fabricVersionString();
    pong.uptimeMs = service.uptimeMs();
    pong.inFlight = service.inFlight();
    pong.pendingPoints = service.pendingPoints();
    const driver::PointScheduler::Counters counters = service.counters();
    pong.pointsSimulated = counters.pointsSimulated;
    pong.pointsDeduped = counters.pointsDeduped;
    pong.memCacheHits = counters.memCacheHits;
    pong.diskCacheHits = counters.diskCacheHits;
    return pong;
}

std::string
pongToJson(const Pong &pong)
{
    std::string out = "{\"kind\":\"pong\",\"fabricVersion\":" +
                      std::to_string(kFabricSchemaVersion);
    if (!pong.id.empty())
        out += ",\"id\":" + svc::jsonQuote(pong.id);
    out += ",\"version\":" + svc::jsonQuote(pong.version);
    out += strfmt(",\"uptimeMs\":%llu,\"inFlight\":%d,"
                  "\"pendingPoints\":%ld",
                  static_cast<unsigned long long>(pong.uptimeMs),
                  pong.inFlight, pong.pendingPoints);
    out += strfmt(",\"pointsSimulated\":%llu,\"pointsDeduped\":%llu,"
                  "\"memCacheHits\":%llu,\"diskCacheHits\":%llu}",
                  static_cast<unsigned long long>(pong.pointsSimulated),
                  static_cast<unsigned long long>(pong.pointsDeduped),
                  static_cast<unsigned long long>(pong.memCacheHits),
                  static_cast<unsigned long long>(pong.diskCacheHits));
    return out;
}

bool
parsePong(const svc::JsonValue &doc, Pong &out, std::string &error)
{
    const svc::JsonValue *v = doc.field("fabricVersion");
    int version = 0;
    if (!v || !v->toInt(version)) {
        error = "missing or non-integer \"fabricVersion\"";
        return false;
    }
    if (version != kFabricSchemaVersion) {
        error = strfmt("unsupported fabricVersion %d (want %d)", version,
                       kFabricSchemaVersion);
        return false;
    }
    uint64_t inFlight = 0;
    uint64_t pending = 0;
    const struct
    {
        const char *name;
        uint64_t &dst;
    } numbers[] = {
        { "uptimeMs", out.uptimeMs },
        { "inFlight", inFlight },
        { "pendingPoints", pending },
        { "pointsSimulated", out.pointsSimulated },
        { "pointsDeduped", out.pointsDeduped },
        { "memCacheHits", out.memCacheHits },
        { "diskCacheHits", out.diskCacheHits },
    };
    // Strict like SimRequest: an unknown field is a protocol error,
    // never silently ignored.
    for (const auto &field : doc.fields) {
        const std::string &name = field.first;
        bool known = name == "kind" || name == "fabricVersion" ||
                     name == "id" || name == "version";
        for (const auto &n : numbers)
            known = known || name == n.name;
        if (!known) {
            error = strfmt("unknown field \"%s\"", name.c_str());
            return false;
        }
    }
    const svc::JsonValue *id = doc.field("id");
    const svc::JsonValue *ver = doc.field("version");
    if ((id && !id->isString()) || !ver || !ver->isString()) {
        error = "\"id\" must be a string and \"version\" a present one";
        return false;
    }
    out.id = id ? id->text : "";
    out.version = ver->text;
    for (const auto &n : numbers) {
        v = doc.field(n.name);
        if (!v || !v->toU64(n.dst)) {
            error = strfmt("missing or bad \"%s\"", n.name);
            return false;
        }
    }
    out.inFlight = static_cast<int>(inFlight);
    out.pendingPoints = static_cast<long>(pending);
    return true;
}

std::string
errorToJson(const std::string &id, const std::string &code,
            const std::string &message)
{
    std::string out = "{\"kind\":\"error\",\"fabricVersion\":" +
                      std::to_string(kFabricSchemaVersion);
    if (!id.empty())
        out += ",\"id\":" + svc::jsonQuote(id);
    out += ",\"error\":{\"code\":" + svc::jsonQuote(code) +
           ",\"message\":" + svc::jsonQuote(message) + "}}";
    return out;
}

} // namespace momsim::fabric
