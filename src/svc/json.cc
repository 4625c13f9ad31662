#include "svc/json.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "driver/result_sink.hh"

namespace momsim::svc
{

namespace
{

struct Parser
{
    const std::string &text;
    size_t i = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &why)
    {
        if (error.empty())
            error = strfmt("json: %s at offset %zu", why.c_str(), i);
        return false;
    }

    void
    skipWs()
    {
        while (i < text.size() &&
               (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
                text[i] == '\r'))
            ++i;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text.compare(i, len, word) != 0)
            return fail(strfmt("expected '%s'", word));
        i += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (i >= text.size() || text[i] != '"')
            return fail("expected '\"'");
        ++i;
        out.clear();
        for (;;) {
            // Append each run of plain bytes with one call.
            size_t run = i;
            while (run < text.size() && text[run] != '"' &&
                   text[run] != '\\')
                ++run;
            out.append(text, i, run - i);
            i = run;
            if (i >= text.size())
                return fail("unterminated string");
            if (text[i++] == '"')
                return true;
            if (i >= text.size())
                return fail("unterminated escape");
            char e = text[i++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                if (i + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = text[i++];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                if (v > 0xff)   // the API never carries beyond Latin-1
                    return fail("\\u escape beyond Latin-1");
                out += static_cast<char>(v);
                break;
              }
              default:
                return fail(strfmt("bad escape '\\%c'", e));
            }
        }
    }

    /** The JSON number grammar, exactly:
     *  -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
    static bool
    validNumberToken(const std::string &t)
    {
        size_t k = 0;
        auto digit = [&t](size_t p) {
            return p < t.size() && t[p] >= '0' && t[p] <= '9';
        };
        if (k < t.size() && t[k] == '-')
            ++k;
        if (!digit(k))
            return false;
        if (t[k] == '0') {
            ++k;
        } else {
            while (digit(k))
                ++k;
        }
        if (k < t.size() && t[k] == '.') {
            ++k;
            if (!digit(k))
                return false;
            while (digit(k))
                ++k;
        }
        if (k < t.size() && (t[k] == 'e' || t[k] == 'E')) {
            ++k;
            if (k < t.size() && (t[k] == '+' || t[k] == '-'))
                ++k;
            if (!digit(k))
                return false;
            while (digit(k))
                ++k;
        }
        return k == t.size();
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = i;
        if (i < text.size() && text[i] == '-')
            ++i;
        while (i < text.size() &&
               ((text[i] >= '0' && text[i] <= '9') || text[i] == '.' ||
                text[i] == 'e' || text[i] == 'E' || text[i] == '+' ||
                text[i] == '-'))
            ++i;
        if (i == start)
            return fail("expected a number");
        out.text.assign(text, start, i - start);
        // Strict: exactly the JSON grammar, not whatever strtod takes
        // ("+5", "5.", ".5" and "1e" all reject).
        if (!validNumberToken(out.text))
            return fail(strfmt("bad number '%s'", out.text.c_str()));
        return true;
    }

    /**
     * Make @p v an empty value of kind @p k. Strings keep their
     * capacity, and the child vector kind @p k uses keeps its elements
     * for the caller to overwrite in place.
     */
    static void
    reset(JsonValue &v, JsonValue::Kind k)
    {
        v.kind = k;
        v.boolean = false;
        v.text.clear();
        if (k != JsonValue::Kind::Array)
            v.items.clear();
        if (k != JsonValue::Kind::Object)
            v.fields.clear();
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        auto &fields = out.fields;
        size_t n = 0;   // fields parsed; slots past n are reused storage
        skipWs();
        if (i < text.size() && text[i] == '}') {
            ++i;
            fields.clear();
            return true;
        }
        for (;;) {
            skipWs();
            if (n == fields.size())
                fields.emplace_back();
            auto &slot = fields[n];
            if (!parseString(slot.first))
                return false;
            for (size_t k = 0; k < n; ++k) {
                if (fields[k].first == slot.first)
                    return fail(strfmt("duplicate key \"%s\"",
                                       slot.first.c_str()));
            }
            skipWs();
            if (i >= text.size() || text[i] != ':')
                return fail("expected ':'");
            ++i;
            if (!parseValue(slot.second, depth + 1))
                return false;
            ++n;
            skipWs();
            if (i < text.size() && text[i] == ',') {
                ++i;
                continue;
            }
            if (i < text.size() && text[i] == '}') {
                ++i;
                fields.resize(n);
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        auto &items = out.items;
        size_t n = 0;   // items parsed; slots past n are reused storage
        skipWs();
        if (i < text.size() && text[i] == ']') {
            ++i;
            items.clear();
            return true;
        }
        for (;;) {
            if (n == items.size())
                items.emplace_back();
            if (!parseValue(items[n], depth + 1))
                return false;
            ++n;
            skipWs();
            if (i < text.size() && text[i] == ',') {
                ++i;
                continue;
            }
            if (i < text.size() && text[i] == ']') {
                ++i;
                items.resize(n);
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > 32)
            return fail("nesting too deep");
        skipWs();
        if (i >= text.size())
            return fail("unexpected end of input");
        char c = text[i];
        if (c == '{') {
            ++i;
            reset(out, JsonValue::Kind::Object);
            return parseObject(out, depth);
        }
        if (c == '[') {
            ++i;
            reset(out, JsonValue::Kind::Array);
            return parseArray(out, depth);
        }
        if (c == '"') {
            reset(out, JsonValue::Kind::String);
            return parseString(out.text);
        }
        if (c == 't') {
            reset(out, JsonValue::Kind::Bool);
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            reset(out, JsonValue::Kind::Bool);
            return literal("false", 5);
        }
        if (c == 'n') {
            reset(out, JsonValue::Kind::Null);
            return literal("null", 4);
        }
        reset(out, JsonValue::Kind::Number);
        return parseNumber(out);
    }
};

} // namespace

const JsonValue *
JsonValue::field(std::string_view name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &f : fields) {
        if (f.first == name)
            return &f.second;
    }
    return nullptr;
}

bool
JsonValue::toU64(uint64_t &out) const
{
    if (kind != Kind::Number || text.empty() || text[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    // Out-of-range values reject instead of clamping to 2^64-1 — a
    // silently clamped cycle cap would key cached rows under a limit
    // the client never asked for.
    return end && *end == '\0' && errno != ERANGE;
}

bool
JsonValue::toInt(int &out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    char *end = nullptr;
    long v = std::strtol(text.c_str(), &end, 10);
    if (!end || *end != '\0' || v < INT32_MIN || v > INT32_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
JsonValue::toDouble(double &out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    Parser p(text);
    if (!p.parseValue(out, 0)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.i != text.size()) {
        error = strfmt("json: trailing garbage at offset %zu", p.i);
        return false;
    }
    return true;
}

bool
parseJsonString(const std::string &text, size_t &pos, std::string &out)
{
    Parser p(text);
    p.i = pos;
    if (!p.parseString(out))
        return false;
    pos = p.i;
    return true;
}

std::string
jsonQuote(const std::string &s)
{
    return "\"" + driver::jsonEscape(s) + "\"";
}

} // namespace momsim::svc
