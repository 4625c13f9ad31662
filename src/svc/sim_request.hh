/**
 * @file
 * The request half of the momsim service API.
 *
 * A SimRequest names a sweep either by registered bench ("fig6",
 * "table4", ... — the grids behind the paper's figures) or by explicit
 * axes (isas x threads x memModels x policies), crossed with registry
 * workloads, plus run limits and shard/cache options. It is the JSON
 * boundary the `momsim batch` traffic endpoint and embedding clients
 * speak; the wire format is versioned (schemaVersion) and parsing is
 * strict — unknown fields, wrong types and foreign versions reject
 * with a one-line error instead of guessing.
 *
 * Variants (ad-hoc parameter tweak closures) are deliberately not
 * expressible as explicit axes — closures do not serialize. Benches
 * that need them (table1, ablation) are reachable by name, where the
 * registered grid factory supplies the closures.
 */

#ifndef MOMSIM_SVC_SIM_REQUEST_HH
#define MOMSIM_SVC_SIM_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace momsim::svc
{

struct JsonValue;

/**
 * Version of the SimRequest wire format. Bump on any field change.
 * v2 = v1 - batch + points + stream. fromJson still reads v1 lines.
 */
constexpr int kSimRequestSchemaVersion = 2;

struct SimRequest
{
    /** Client-chosen tag echoed verbatim in the SimResponse. */
    std::string id;

    /**
     * Client identity echoed in the response's "client" field. A
     * request that leaves it empty gets the transport's default tag
     * (the connection's id under `momsim serve`, `--client` under
     * `momsim batch`), so every response names which client's request
     * produced it even when requests from many connections interleave
     * in one server log.
     */
    std::string client;

    /**
     * Registered bench name ("fig6", ...). Empty means the request
     * carries explicit axes instead; the two are mutually exclusive.
     */
    std::string bench;

    /** Registry workload names; empty means the default ("paper"). */
    std::vector<std::string> workloads;

    // ---- explicit axes (only valid when bench is empty) ----
    std::vector<std::string> isas;      ///< "mmx" / "mom"
    std::vector<int> threads;           ///< 1..8
    std::vector<std::string> memModels; ///< "perfect"/"conventional"/...
    std::vector<std::string> policies;  ///< "rr"/"icount"/"ocount"/...

    bool quick = false;         ///< tiny workload scale
    uint64_t maxCycles = 0;     ///< 0 => the grid's own limit
    uint64_t seed = 0;          ///< base of the per-task seeds
    int shardIndex = 1;         ///< 1-based, <= shardCount
    int shardCount = 1;
    std::string cacheDir;       ///< "" => no persistence

    /**
     * Canonical ids of the sweep points to run; empty runs them all.
     * A non-empty list is the request's shard (it needs shardCount 1)
     * and every id must name a point of the expanded sweep. The
     * fabric coordinator deals each worker its points this way.
     */
    std::vector<std::string> points;

    /**
     * Stream the rows: the batch and serve transports write each one as
     * its own line in the result store's format (`{"key":...,` plus the
     * row's fields), disk-cache hits first in sweep order, the rest as
     * they complete, and then the final SimResponse with the plan
     * summary and an empty "rows". SimService::start itself answers
     * with the rows as usual.
     */
    bool stream = false;

    /** One-line JSON at kSimRequestSchemaVersion, fixed field order
     *  (JSONL-ready); points and stream only when set. */
    std::string toJson() const;

    /**
     * Strict parse of one JSON document. Accepts schemaVersion 1 (with
     * its retired "batch" knob: parsed, rejected below 1, then
     * ignored) and kSimRequestSchemaVersion; rejects unknown fields,
     * wrong types and malformed JSON with a one-line description in
     * @p error. Structural validity only — semantic checks (known
     * bench, known workloads, shard bounds) happen in SimService::
     * start so they come back as structured SimResponse errors.
     */
    static bool fromJson(const std::string &json, SimRequest &out,
                         std::string &error);

    /** fromJson on a document the transport has already parsed. */
    static bool fromJson(const JsonValue &doc, SimRequest &out,
                         std::string &error);
};

/**
 * Best-effort recovery of the top-level "id" string from a line that
 * failed fromJson, so even the bad_request response for an unparseable
 * request can echo the tag the client sent and be correlated. Lenient
 * about structure: it tracks brace and bracket depth to find a
 * top-level `"id": "<string>"` pair without requiring the rest of the
 * line to be JSON at all. Strict about strings: every string literal
 * it passes is read by parseJsonString (svc/json.hh), the parser's own
 * string grammar, and one that does not parse ends the salvage.
 * Returns "" when no such pair can be salvaged. Never used on the
 * success path — real parsing stays strict.
 */
std::string salvageTopLevelId(const std::string &line);

} // namespace momsim::svc

#endif // MOMSIM_SVC_SIM_REQUEST_HH
