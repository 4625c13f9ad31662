/**
 * @file
 * `momsim coord --workers LIST <bench> [bench flags]` — run any
 * registered sweep across a fleet of `momsim serve` workers and print
 * the canonical output, byte-identical to the single-process run.
 *
 * The shape is deliberate:
 *
 *   1. Plan locally. The coordinator expands the bench's grid exactly
 *      as the CLI would and runs it through the same cost-weighted
 *      planner (planSweep) against the shared --cache-dir store, so
 *      already-cached points never leave the building.
 *   2. Deal remotely. The to-simulate points go to the Dealer, whose
 *      initial partition is the same LPT deal `--shard I/N` uses; each
 *      deal is an ordinary SimRequest naming its `points` with
 *      `stream` set, so the worker streams every completed row back as
 *      a store line before its final SimResponse, and every row is
 *      put() into the store immediately — a worker that dies mid-deal
 *      loses only its unfinished points, which re-deal to whoever is
 *      idle. Completions are idempotent (content-addressed keys,
 *      last-wins rows), so a presumed-dead straggler's late rows are
 *      harmless duplicates.
 *   3. Render locally. With the store fully warm, the normal bench
 *      path replays it (--cache-dir, or --merge for the coordinator's
 *      temporary store) and simulates nothing — the gated mechanism
 *      that already makes shard-and-merge byte-identical is what makes
 *      the fleet byte-identical.
 */

#include "fabric/coord_main.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "common/thread_annotations.hh"
#include "driver/bench_harness.hh"
#include "driver/result_store.hh"
#include "fabric/dealer.hh"
#include "fabric/protocol.hh"
#include "fabric/worker_link.hh"
#include "svc/bench_registry.hh"
#include "svc/json.hh"
#include "svc/sim_request.hh"
#include "workloads/workload_repo.hh"

namespace momsim::fabric
{

namespace
{

constexpr const char *kCmd = "momsim coord";

struct CoordOptions
{
    std::vector<WorkerAddr> workers;
    int connectRetries = 5;
    int retryBackoffMs = 200;
    int workerTimeoutMs = 120000;
    std::string workerCacheDir;     ///< cacheDir field of worker requests
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: momsim coord --workers LIST <bench> [bench flags]\n"
        "  --workers LIST          comma-separated worker addresses\n"
        "                          (HOST:PORT or unix:PATH); repeatable\n"
        "  --connect-retries N     extra dial attempts per worker (5)\n"
        "  --retry-backoff-ms MS   first retry backoff, doubled and\n"
        "                          jittered per attempt (200)\n"
        "  --worker-timeout-ms MS  silence window after which a worker\n"
        "                          is presumed dead and its points\n"
        "                          re-dealt (120000)\n"
        "  --worker-cache-dir DIR  cacheDir the workers should use for\n"
        "                          their own stores (default: none)\n"
        "Bench flags (--quick, --workload, --cache-dir, --csv, ...) pass\n"
        "through to the sweep; --shard and --merge are the coordinator's\n"
        "job and reject.\n");
}

/** The per-worker link driver: claim, send, stream rows, repeat. */
class WorkerThread
{
  public:
    struct Shared
    {
        Dealer &dealer;
        driver::ResultStore &store;
        momsim::Mutex &storeMutex;
        /** Result-cache key -> canonical point id of every dealt point. */
        const std::unordered_map<std::string, std::string> &pointOf;
        const svc::SimRequest &sweep;
        int timeoutMs;
        momsim::Mutex &logMutex;
        std::string &lastError;
    };

    WorkerThread(int index, WorkerLink link, Shared shared)
        : _index(index), _link(std::move(link)), _shared(shared)
    {}

    void
    start()
    {
        _thread = std::thread([this] { run(); });
    }

    void
    join()
    {
        if (_thread.joinable())
            _thread.join();
    }

  private:
    void
    lost(const std::string &why)
    {
        _link.close();
        const size_t redealt = _shared.dealer.fail(_index);
        MutexLock lock(_shared.logMutex);
        _shared.lastError = why;
        std::fprintf(stderr,
                     "[coord] worker %s lost (%s); re-dealing %zu "
                     "point(s)\n", _link.display().c_str(), why.c_str(),
                     redealt);
    }

    void
    run()
    {
        int dealSeq = 0;
        for (;;) {
            const std::vector<DealPoint> batch =
                _shared.dealer.claim(_index);
            if (batch.empty())
                return;     // done, failed, or this link was lost
            svc::SimRequest deal = _shared.sweep;
            deal.id = strfmt("d%d-%d", _index, dealSeq++);
            for (const DealPoint &p : batch)
                deal.points.push_back(p.id);
            if (!_link.sendLine(deal.toJson())) {
                lost("send failed");
                return;
            }
            if (!readDeal(deal.id, batch.size()))
                return;     // lost() already ran
        }
    }

    /** Read row lines until the deal's final SimResponse; false on
     *  link loss. */
    bool
    readDeal(const std::string &dealId, size_t points)
    {
        std::unordered_set<std::string> got;
        for (;;) {
            std::string line;
            switch (_link.readLine(line, _shared.timeoutMs)) {
            case WorkerLink::ReadResult::Line:
                break;
            case WorkerLink::ReadResult::Timeout:
                lost(strfmt("no traffic for %d ms", _shared.timeoutMs));
                return false;
            case WorkerLink::ReadResult::Eof:
                lost("connection closed");
                return false;
            case WorkerLink::ReadResult::Error:
                lost("read error");
                return false;
            }
            svc::JsonValue doc;
            std::string error;
            if (!svc::parseJson(line, doc, error)) {
                lost(strfmt("unparseable reply: %s", error.c_str()));
                return false;
            }
            if (doc.field("key")) {
                std::string key;
                driver::ResultRow row;
                if (!driver::readStoreLine(doc, key, row)) {
                    lost("bad row line");
                    return false;
                }
                auto it = _shared.pointOf.find(key);
                if (it == _shared.pointOf.end()) {
                    // A key we did not plan means the worker disagrees
                    // about the sweep (version skew the ping check
                    // should have caught) — its rows cannot be trusted.
                    lost(strfmt("row key not in the plan: %s",
                                key.c_str()));
                    return false;
                }
                {
                    MutexLock lock(_shared.storeMutex);
                    _shared.store.put(key, row);
                }
                _shared.dealer.complete(it->second);
                got.insert(it->second);
                continue;
            }
            // Anything else is the deal's final SimResponse.
            const svc::JsonValue *id = doc.field("id");
            const svc::JsonValue *ok = doc.field("ok");
            if (!id || !id->isString() || id->text != dealId || !ok ||
                !ok->isBool()) {
                lost(strfmt("unexpected reply: %s", line.c_str()));
                return false;
            }
            if (!ok->boolean) {
                lost(strfmt("deal failed: %s", line.c_str()));
                return false;
            }
            if (got.size() != points) {
                lost(strfmt("incomplete deal %s: %zu of %zu row(s)",
                            dealId.c_str(), got.size(), points));
                return false;
            }
            return true;
        }
    }

    int _index;
    WorkerLink _link;
    Shared _shared;
    std::thread _thread;
};

} // namespace

int
runCoord(int argc, char **argv)
{
    CoordOptions coord;
    std::vector<std::string> benchTokens;   ///< everything non-fabric
    std::string benchName;

    bool valueExpected = false;     // previous bench token takes a value
    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--workers") == 0) {
            std::string list;
            if (!stringFlag(kCmd, argc, argv, i, list))
                return 2;
            size_t start = 0;
            while (start <= list.size()) {
                const size_t comma = list.find(',', start);
                const std::string item =
                    list.substr(start, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - start);
                if (!item.empty()) {
                    WorkerAddr addr;
                    std::string error;
                    if (!parseWorkerAddr(item, addr, error)) {
                        std::fprintf(stderr, "%s: %s\n", kCmd,
                                     error.c_str());
                        return 2;
                    }
                    coord.workers.push_back(std::move(addr));
                }
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (std::strcmp(arg, "--connect-retries") == 0) {
            if (!intFlag(kCmd, argc, argv, i, 0, coord.connectRetries))
                return 2;
        } else if (std::strcmp(arg, "--retry-backoff-ms") == 0) {
            if (!intFlag(kCmd, argc, argv, i, 1, coord.retryBackoffMs))
                return 2;
        } else if (std::strcmp(arg, "--worker-timeout-ms") == 0) {
            if (!intFlag(kCmd, argc, argv, i, 1, coord.workerTimeoutMs))
                return 2;
        } else if (std::strcmp(arg, "--worker-cache-dir") == 0) {
            if (!stringFlag(kCmd, argc, argv, i, coord.workerCacheDir))
                return 2;
        } else {
            if (!valueExpected && arg[0] != '-' && benchName.empty()) {
                benchName = arg;
                continue;       // the bench name is ours, not a flag
            }
            valueExpected = !valueExpected &&
                            driver::BenchOptions::takesValue(arg);
            benchTokens.push_back(arg);
        }
    }

    if (benchName.empty()) {
        std::fprintf(stderr, "%s: no bench named\n", kCmd);
        usage();
        return 2;
    }
    const svc::BenchDef *def = svc::findBench(benchName);
    if (!def) {
        std::fprintf(stderr, "%s: unknown bench \"%s\" (see `momsim "
                     "list`)\n", kCmd, benchName.c_str());
        return 2;
    }
    if (!def->hasSweep()) {
        std::fprintf(stderr,
                     "%s: bench \"%s\" has no sweep stage; run `momsim "
                     "%s` directly\n", kCmd, benchName.c_str(),
                     benchName.c_str());
        return 2;
    }

    // The bench-flag remainder, parsed exactly as the final render will
    // parse it — argv[0] is the display name, as runBench uses it.
    const std::string display = "momsim " + benchName;
    std::vector<char *> benchArgv;
    benchArgv.push_back(const_cast<char *>(display.c_str()));
    for (const std::string &t : benchTokens)
        benchArgv.push_back(const_cast<char *>(t.c_str()));

    driver::BenchOptions opts;
    std::string error;
    if (!driver::BenchOptions::parseInto(
            static_cast<int>(benchArgv.size()), benchArgv.data(), opts,
            error)) {
        std::fprintf(stderr, "%s: %s\n", kCmd, error.c_str());
        return 2;
    }
    if (opts.shardCount != 1 || opts.shardIndex != 1) {
        std::fprintf(stderr, "%s: --shard conflicts with the fleet — "
                     "the coordinator deals the shards\n", kCmd);
        return 2;
    }
    if (!opts.mergePaths.empty()) {
        std::fprintf(stderr, "%s: --merge conflicts with the fleet — "
                     "the coordinator merges worker rows itself\n",
                     kCmd);
        return 2;
    }
    if (opts.dryRun || opts.listWorkloads) {
        // Pure local queries; no fleet involved.
        return svc::runBench(*def, static_cast<int>(benchArgv.size()),
                             benchArgv.data());
    }
    if (coord.workers.empty()) {
        std::fprintf(stderr, "%s: no --workers given\n", kCmd);
        usage();
        return 2;
    }

    // ---- the shared store every worker row lands in ----
    std::string storeDir = opts.cacheDir;
    bool tempStore = false;
    char tempTemplate[] = "/tmp/momsim-coord-XXXXXX";
    if (storeDir.empty()) {
        if (!mkdtemp(tempTemplate)) {
            std::fprintf(stderr, "%s: cannot create a temporary store "
                         "directory\n", kCmd);
            return 1;
        }
        storeDir = tempTemplate;
        tempStore = true;
    }
    driver::ResultStore store;
    if (!store.openDir(storeDir)) {
        std::fprintf(stderr, "%s: cannot open store directory %s\n",
                     kCmd, storeDir.c_str());
        return 1;
    }

    // ---- plan the sweep exactly as the single-process run would ----
    driver::SweepGrid grid = def->grid(opts);
    driver::applyRunSelection(grid, opts.workloads, opts.maxCycles);
    std::vector<driver::ExperimentSpec> specs =
        grid.expand(opts.baseSeed);

    workloads::WorkloadRepo repo(opts.quick
                                     ? workloads::WorkloadScale::Tiny
                                     : workloads::WorkloadScale::Paper,
                                 opts.jobs);
    repo.prebuild(grid.workloadList());
    driver::RunPlan plan =
        driver::planSweep(std::move(specs), repo, &store, 0, 1);

    std::vector<DealPoint> toSim;
    std::unordered_map<std::string, std::string> pointOf;
    for (const driver::PlannedPoint &p : plan.points) {
        if (p.cached)
            continue;
        DealPoint d;
        d.id = p.spec.canonicalId();
        d.cost = p.cost;
        pointOf.emplace(p.key, d.id);
        toSim.push_back(std::move(d));
    }
    std::fprintf(stderr,
                 "[coord] plan: total=%zu cached=%zu to-deal=%zu "
                 "workers=%zu\n", plan.points.size(),
                 plan.points.size() - toSim.size(), toSim.size(),
                 coord.workers.size());

    if (!toSim.empty()) {
        // ---- dial and version-check the fleet ----
        net::ignoreSigpipe();
        std::vector<WorkerLink> links;
        const std::string wantVersion = fabricVersionString();
        for (const WorkerAddr &addr : coord.workers) {
            WorkerLink link(addr);
            std::string dialError;
            if (!link.dial(coord.connectRetries, coord.retryBackoffMs,
                           dialError)) {
                std::fprintf(stderr, "%s\n",
                             errorToJson(
                                 "", "connect_failed",
                                 strfmt("worker %s: %s",
                                        link.display().c_str(),
                                        dialError.c_str()))
                                 .c_str());
                continue;
            }
            Pong pong;
            std::string line;
            std::string pongError;
            if (!link.sendLine(pingToJson("hello")) ||
                link.readLine(line, coord.workerTimeoutMs) !=
                    WorkerLink::ReadResult::Line) {
                pongError = "no pong";
            } else {
                svc::JsonValue doc;
                if (!svc::parseJson(line, doc, pongError) ||
                    !parsePong(doc, pong, pongError)) {
                    pongError = "bad pong: " + pongError;
                } else if (pong.version != wantVersion) {
                    // A version-skewed worker would compute different
                    // cache keys — excluding it is correctness, not
                    // just hygiene.
                    pongError =
                        strfmt("version skew: worker %s vs coord %s",
                               pong.version.c_str(),
                               wantVersion.c_str());
                }
            }
            if (!pongError.empty()) {
                std::fprintf(stderr, "[coord] excluding worker %s "
                             "(%s)\n", link.display().c_str(),
                             pongError.c_str());
                continue;
            }
            links.push_back(std::move(link));
        }
        if (links.empty()) {
            std::fprintf(stderr, "%s\n",
                         errorToJson("coord", "no_workers",
                                     strfmt("no usable workers among "
                                            "%zu configured",
                                            coord.workers.size()))
                             .c_str());
            return 1;
        }
        std::fprintf(stderr, "[coord] fleet: %zu of %zu worker(s) "
                     "usable\n", links.size(), coord.workers.size());

        // ---- run the deal ----
        svc::SimRequest sweep;
        sweep.client = "coord";
        sweep.bench = def->name;
        sweep.workloads = opts.workloads;
        sweep.quick = opts.quick;
        sweep.maxCycles = opts.maxCycles;
        sweep.seed = opts.baseSeed;
        sweep.cacheDir = coord.workerCacheDir;
        sweep.stream = true;

        Dealer dealer(toSim, static_cast<int>(links.size()));
        momsim::Mutex storeMutex;
        momsim::Mutex logMutex;
        std::string lastError;
        std::vector<std::unique_ptr<WorkerThread>> threads;
        for (size_t i = 0; i < links.size(); ++i) {
            WorkerThread::Shared shared{ dealer,  store,
                                         storeMutex, pointOf,
                                         sweep,   coord.workerTimeoutMs,
                                         logMutex,  lastError };
            threads.push_back(std::make_unique<WorkerThread>(
                static_cast<int>(i), std::move(links[i]), shared));
        }
        for (auto &t : threads)
            t->start();
        for (auto &t : threads)
            t->join();

        if (!dealer.done()) {
            std::fprintf(
                stderr, "%s\n",
                errorToJson(
                    "coord", "fleet_failed",
                    strfmt("every worker failed with %zu point(s) "
                           "unfinished (last error: %s)",
                           dealer.remaining(),
                           lastError.empty() ? "none recorded"
                                             : lastError.c_str()))
                    .c_str());
            return 1;
        }
        if (dealer.redealCount() > 0) {
            std::fprintf(stderr, "[coord] sweep complete after "
                         "re-dealing %zu point(s)\n",
                         dealer.redealCount());
        }
    }

    // ---- render: the store is fully warm, replay it canonically ----
    const std::string storeFile =
        storeDir + "/" + driver::ResultStore::kFileName;
    std::vector<char *> renderArgv = benchArgv;
    std::string mergeFlag = "--merge";
    if (tempStore) {
        renderArgv.push_back(const_cast<char *>(mergeFlag.c_str()));
        renderArgv.push_back(const_cast<char *>(storeFile.c_str()));
    }
    const int code = svc::runBench(
        *def, static_cast<int>(renderArgv.size()), renderArgv.data());

    if (tempStore) {
        ::unlink(storeFile.c_str());
        ::rmdir(storeDir.c_str());
    }
    return code;
}

} // namespace momsim::fabric
