/**
 * @file
 * The fabric wire protocol: the "kind"-tagged JSONL lines that sit
 * beside SimRequest/SimResponse on every `momsim serve` / `momsim
 * batch` transport.
 *
 * A line whose top-level object carries a "kind" field is a fabric
 * message (a SimRequest can never carry one — its strict parser
 * rejects unknown fields); the transport parses each line once and
 * dispatches on it:
 *
 *   ping       -> pong          worker health/version probe
 *   (other)    -> error         unknown_kind
 *
 * Sweep work needs no message of its own: the coordinator (`momsim
 * coord`) sends each worker an ordinary SimRequest naming its dealt
 * `points` with `stream` set, reads the rows back as store lines and
 * takes the final SimResponse as the end of the deal.
 *
 * Versioning: every message a worker sends (pong, error) carries
 * fabricVersion; the pong's
 * version string additionally folds in the request/response/row-
 * schema/sim-code versions, and a coordinator refuses workers whose
 * string differs from its own — a mixed-version fleet would disagree
 * on cache keys, which must be a startup error, not a silent wrong
 * merge.
 */

#ifndef MOMSIM_FABRIC_PROTOCOL_HH
#define MOMSIM_FABRIC_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "svc/json.hh"

namespace momsim::svc
{
class SimService;
}

namespace momsim::fabric
{

/** Version of the fabric message set. Bump on any message change.
 *  v2 = v1 + the pong's scheduler gauges (pointsSimulated,
 *  pointsDeduped, memCacheHits, diskCacheHits).
 *  v3 = v2 - shard_run, row and shard_done (deals are SimRequests
 *  with points and stream). */
constexpr int kFabricSchemaVersion = 3;

/**
 * The compatibility fingerprint a worker reports in its pong:
 * "fabric<F>/req<R>/resp<S>/rows<V>/sim<C>". Two processes with equal
 * strings agree on every wire format *and* on result-cache keys.
 */
std::string fabricVersionString();

/** The top-level "kind" of a parsed line; "" when @p doc is not an
 *  object or carries no string "kind" (i.e. not a fabric message). */
std::string kindOf(const svc::JsonValue &doc);

// ---- ping / pong -----------------------------------------------------

/** `{"kind":"ping"}` with an optional correlation id. Deliberately
 *  lenient to parse: a hand-typed health check needs no version. */
std::string pingToJson(const std::string &id);

struct Pong
{
    std::string id;             ///< echo of the ping's id ("" if none)
    std::string version;        ///< fabricVersionString() of the worker
    uint64_t uptimeMs = 0;      ///< since the worker started serving
    int inFlight = 0;           ///< requests executing right now
    long pendingPoints = 0;     ///< dealt sweep points not yet finished
    // Scheduler gauges (lifetime totals of the worker's SimService):
    uint64_t pointsSimulated = 0;   ///< points executed on a worker
    uint64_t pointsDeduped = 0;     ///< points joined in flight
    uint64_t memCacheHits = 0;      ///< memory-row-cache replays
    uint64_t diskCacheHits = 0;     ///< disk-store planning-time hits
};

/** The pong @p service answers a ping carrying @p id with. */
Pong pongOf(const svc::SimService &service, const std::string &id);

std::string pongToJson(const Pong &pong);
bool parsePong(const svc::JsonValue &doc, Pong &out, std::string &error);

// ---- error -----------------------------------------------------------

/** A protocol-level failure line (unknown kind, bad version, ...). */
std::string errorToJson(const std::string &id, const std::string &code,
                        const std::string &message);

} // namespace momsim::fabric

#endif // MOMSIM_FABRIC_PROTOCOL_HH
