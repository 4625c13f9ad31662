#include "svc/sim_request.hh"

#include "common/logging.hh"
#include "svc/json.hh"

namespace momsim::svc
{

namespace
{

std::string
stringArray(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jsonQuote(v[i]);
    }
    return out + "]";
}

std::string
intArray(const std::vector<int> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += strfmt("%d", v[i]);
    }
    return out + "]";
}

bool
readStringArray(const JsonValue &v, const char *name,
                std::vector<std::string> &out, std::string &error)
{
    if (!v.isArray()) {
        error = strfmt("field \"%s\" must be an array of strings", name);
        return false;
    }
    out.clear();
    for (const JsonValue &item : v.items) {
        if (!item.isString()) {
            error = strfmt("field \"%s\" must be an array of strings",
                           name);
            return false;
        }
        out.push_back(item.text);
    }
    return true;
}

bool
readIntArray(const JsonValue &v, const char *name, std::vector<int> &out,
             std::string &error)
{
    if (!v.isArray()) {
        error = strfmt("field \"%s\" must be an array of integers", name);
        return false;
    }
    out.clear();
    for (const JsonValue &item : v.items) {
        int n = 0;
        if (!item.toInt(n)) {
            error = strfmt("field \"%s\" must be an array of integers",
                           name);
            return false;
        }
        out.push_back(n);
    }
    return true;
}

} // namespace

std::string
SimRequest::toJson() const
{
    std::string out = "{";
    out += strfmt("\"schemaVersion\":%d,", kSimRequestSchemaVersion);
    out += "\"id\":" + jsonQuote(id) + ",";
    if (!client.empty())
        out += "\"client\":" + jsonQuote(client) + ",";
    out += "\"bench\":" + jsonQuote(bench) + ",";
    out += "\"workloads\":" + stringArray(workloads) + ",";
    out += "\"isas\":" + stringArray(isas) + ",";
    out += "\"threads\":" + intArray(threads) + ",";
    out += "\"memModels\":" + stringArray(memModels) + ",";
    out += "\"policies\":" + stringArray(policies) + ",";
    out += strfmt("\"quick\":%s,", quick ? "true" : "false");
    out += strfmt("\"maxCycles\":%llu,",
                  static_cast<unsigned long long>(maxCycles));
    out += strfmt("\"seed\":%llu,",
                  static_cast<unsigned long long>(seed));
    out += strfmt("\"shardIndex\":%d,\"shardCount\":%d,", shardIndex,
                  shardCount);
    out += "\"cacheDir\":" + jsonQuote(cacheDir);
    if (!points.empty())
        out += ",\"points\":" + stringArray(points);
    if (stream)
        out += ",\"stream\":true";
    return out + "}";
}

bool
SimRequest::fromJson(const std::string &json, SimRequest &out,
                     std::string &error)
{
    JsonValue doc;
    return parseJson(json, doc, error) && fromJson(doc, out, error);
}

bool
SimRequest::fromJson(const JsonValue &doc, SimRequest &out,
                     std::string &error)
{
    if (!doc.isObject()) {
        error = "request must be a JSON object";
        return false;
    }

    // schemaVersion is checked before anything else so a client on a
    // future format gets the version message, not a field complaint.
    const JsonValue *ver = doc.field("schemaVersion");
    if (!ver) {
        error = "missing required field \"schemaVersion\"";
        return false;
    }
    int version = 0;
    if (!ver->toInt(version)) {
        error = "field \"schemaVersion\" must be an integer";
        return false;
    }
    if (version < 1 || version > kSimRequestSchemaVersion) {
        error = strfmt("unsupported schemaVersion %d (this build speaks "
                       "1 to %d)", version, kSimRequestSchemaVersion);
        return false;
    }

    SimRequest req;
    for (const auto &f : doc.fields) {
        const std::string &name = f.first;
        const JsonValue &v = f.second;
        if (name == "schemaVersion") {
            continue;   // validated above
        } else if (name == "id" || name == "client" ||
                   name == "bench" || name == "cacheDir") {
            if (!v.isString()) {
                error = strfmt("field \"%s\" must be a string",
                               name.c_str());
                return false;
            }
            (name == "id"       ? req.id
             : name == "client" ? req.client
             : name == "bench"  ? req.bench
                                : req.cacheDir) = v.text;
        } else if (name == "workloads") {
            if (!readStringArray(v, "workloads", req.workloads, error))
                return false;
        } else if (name == "isas") {
            if (!readStringArray(v, "isas", req.isas, error))
                return false;
        } else if (name == "threads") {
            if (!readIntArray(v, "threads", req.threads, error))
                return false;
        } else if (name == "memModels") {
            if (!readStringArray(v, "memModels", req.memModels, error))
                return false;
        } else if (name == "policies") {
            if (!readStringArray(v, "policies", req.policies, error))
                return false;
        } else if (name == "quick") {
            if (!v.isBool()) {
                error = "field \"quick\" must be a boolean";
                return false;
            }
            req.quick = v.boolean;
        } else if (name == "maxCycles") {
            if (!v.toU64(req.maxCycles)) {
                error = "field \"maxCycles\" must be a non-negative "
                        "integer";
                return false;
            }
        } else if (name == "seed") {
            if (!v.toU64(req.seed)) {
                error = "field \"seed\" must be a non-negative integer";
                return false;
            }
        } else if (name == "shardIndex") {
            if (!v.toInt(req.shardIndex)) {
                error = "field \"shardIndex\" must be an integer";
                return false;
            }
        } else if (name == "shardCount") {
            if (!v.toInt(req.shardCount)) {
                error = "field \"shardCount\" must be an integer";
                return false;
            }
        } else if (name == "batch" && version == 1) {
            // v1's retired execution knob: still validated, never used.
            int batch = 0;
            if (!v.toInt(batch)) {
                error = "field \"batch\" must be an integer";
                return false;
            }
            if (batch < 1) {
                error = strfmt("bad batch %d (want an integer >= 1)",
                               batch);
                return false;
            }
        } else if (name == "points" && version >= 2) {
            if (!readStringArray(v, "points", req.points, error))
                return false;
        } else if (name == "stream" && version >= 2) {
            if (!v.isBool()) {
                error = "field \"stream\" must be a boolean";
                return false;
            }
            req.stream = v.boolean;
        } else {
            // Strict by design: a misspelled field silently ignored
            // would run the wrong sweep and cache it under the wrong
            // key. Clients on newer formats bump schemaVersion instead.
            error = strfmt("unknown field \"%s\"", name.c_str());
            return false;
        }
    }
    out = std::move(req);
    return true;
}

std::string
salvageTopLevelId(const std::string &line)
{
    // Walk the line tracking brace/bracket depth and string literals;
    // at depth 1, a string immediately followed by ':' is a key. The
    // input is known-malformed somewhere, so the walk never trusts it:
    // any string literal parseJsonString rejects ends the salvage.
    int depth = 0;
    size_t pos = 0;
    bool atKey = false;     // last token was a depth-1 key named "id"
    while (pos < line.size()) {
        char c = line[pos];
        if (c == '"') {
            std::string text;
            if (!parseJsonString(line, pos, text))
                return "";
            if (atKey)
                return text;    // the value of a top-level "id" key
            size_t look = pos;
            while (look < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[look])))
                ++look;
            if (look < line.size() && line[look] == ':' && depth == 1 &&
                text == "id") {
                atKey = true;
                pos = look + 1;
                while (pos < line.size() &&
                       std::isspace(
                           static_cast<unsigned char>(line[pos])))
                    ++pos;
                // A non-string id ("id":3) is not salvageable as a tag.
                if (pos >= line.size() || line[pos] != '"')
                    return "";
            }
            continue;
        }
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ++pos;
    }
    return "";
}

} // namespace momsim::svc
