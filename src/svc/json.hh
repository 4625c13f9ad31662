/**
 * @file
 * The one JSON reader in momsim: a small recursive parser with a
 * document model of objects, arrays, strings, numbers, booleans and
 * null, strict errors (position-annotated), duplicate-key rejection
 * and no trailing garbage. Numbers keep their raw token so 64-bit
 * integers (seeds, cycle caps) never round-trip through a double.
 *
 * Every JSON reader in src/ goes through it: service requests and
 * responses, fabric messages, result-store rows (driver/result_store)
 * and the id salvage of unparseable request lines, so there is one
 * grammar to fuzz and one place to fix. It is compiled into
 * momsim_core, which the store lives in; the header stays under svc/
 * because the benchmark harness includes it by this path.
 *
 * This is a reader, not a writer: serialization stays hand-rolled at
 * each call site (as the result store does) so field order is explicit
 * and deterministic.
 */

#ifndef MOMSIM_SVC_JSON_HH
#define MOMSIM_SVC_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace momsim::svc
{

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;       ///< valid when kind == Bool
    std::string text;           ///< string value, or the raw number token
    std::vector<JsonValue> items;                       ///< Array
    std::vector<std::pair<std::string, JsonValue>> fields;  ///< Object

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object field lookup; nullptr when absent (or not an object). */
    const JsonValue *field(std::string_view name) const;

    /** Number conversions; false on non-numbers or range/format. */
    bool toU64(uint64_t &out) const;
    bool toInt(int &out) const;
    bool toDouble(double &out) const;
};

/**
 * Parse @p text as one JSON document into @p out. On failure returns
 * false and puts a one-line, position-annotated description in
 * @p error. Trailing non-whitespace after the document is an error.
 *
 * @p out's storage is reused: parsing line after line into one value
 * overwrites its strings and child vectors in place instead of
 * reallocating them. After a success @p out holds exactly the parsed
 * document; after a failure its content is unspecified.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/**
 * Read the one JSON string literal that starts at @p text[@p pos] (a
 * '"'), with parseJson's grammar and escapes. On success leaves @p pos
 * one past the closing quote and puts the decoded value in @p out;
 * returns false on anything else.
 */
bool parseJsonString(const std::string &text, size_t &pos,
                     std::string &out);

/** Escape for a JSON string literal (same dialect as the sink's). */
std::string jsonQuote(const std::string &s);

} // namespace momsim::svc

#endif // MOMSIM_SVC_JSON_HH
