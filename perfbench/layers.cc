/**
 * @file
 * momsim_layers — the benchmark's traced harness.
 *
 * It sends a workload's inputs through momsim's layers by calling each
 * layer's public functions in the order a served request crosses them,
 * and times every call from outside:
 *
 *   workloads  WorkloadRepo::get, MediaWorkload::arena()
 *   svc        SimRequest::fromJson, SimResponse::toJson
 *   plan       planSweep (workload fingerprints + cache keys)
 *   store      ResultStore::openDir / find / put
 *   sched      PointScheduler::Request::add -> its exec callback
 *   kernel     the Simulation constructor and run(), SmtCore::stats()
 *   mem        MemorySystem::statsOf
 *
 * The request path mirrors SimService::submit (plan, store lookups,
 * scheduler, store appends, response), so its rows are the rows the
 * daemon would answer. Each call records one span (name, start, end,
 * parent, request id, thread) in memory; at exit the spans are written
 * as Chrome trace-event JSON, which Perfetto and chrome://tracing open.
 * perfbench/run.py derives every per-layer metric from that file.
 *
 * Usage:
 *   momsim_layers --cache-dir DIR [--jobs N] [--no-spans]
 *                 [--build paper,tiny] [--populate BENCH,... --seeds S,...]
 *                 [--phase FILE]... [--responses FILE]
 *                 [--trace-out FILE] [--summary FILE]
 *
 * Steps, in order: build the workload scales (--build, default both);
 * open the store; with --populate, fill the store for the warm-replay
 * workload (each distinct quick-scale point of the benches simulated
 * once, then one row per (point, seed) put under that seed's cache key)
 * and reopen it the way a daemon starts; replay each --phase file
 * (lines "CLIENT<TAB>request JSON"; one thread per client, closed loop,
 * phases in order); reopen the final store to time loading it.
 * --no-spans runs the same steps with the recorder off: the untraced
 * wall the tracing overhead is measured against. --summary FILE writes
 * the wall time of these steps and of the phase replay alone as
 * {"wall_ms":...,"replay_ms":...}; --responses FILE
 * writes every reply, one per line, after that time is taken.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "core/simulation.hh"
#include "driver/experiment.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "svc/axis_parse.hh"
#include "svc/bench_registry.hh"
#include "svc/json.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "workloads/workload_repo.hh"

namespace
{

using namespace momsim;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
        .count();
}

// ---------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------

struct SpanRecord
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t req = 0;
    int tid = 0;
    bool async = false;     ///< a wait that starts on another thread
    std::string args;       ///< extra `"key":value` pairs, comma-led
};

class Recorder
{
  public:
    bool enabled = true;

    uint64_t nextId() { return _next.fetch_add(1) + 1; }

    void
    add(SpanRecord s)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _spans.push_back(std::move(s));
    }

    void
    nameThread(int tid, const std::string &name)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _threadNames[tid] = name;
    }

    bool writeChromeTrace(const std::string &path);

  private:
    std::atomic<uint64_t> _next { 0 };
    std::mutex _mutex;
    std::vector<SpanRecord> _spans;
    std::map<int, std::string> _threadNames;
};

Recorder gRec;
std::atomic<int> gNextTid { 0 };
thread_local int tTid = 0;
thread_local uint64_t tOpenSpan = 0;    ///< innermost open span here

int
threadId()
{
    if (tTid == 0)
        tTid = gNextTid.fetch_add(1) + 1;
    return tTid;
}

/** Parent marker: nest under this thread's innermost open span. */
constexpr uint64_t kInherit = ~0ull;

/** One call timed from outside; recorded when it goes out of scope. */
class Span
{
  public:
    Span(const char *name, uint64_t req = 0, uint64_t parent = kInherit)
    {
        if (!gRec.enabled)
            return;
        _rec.name = name;
        _rec.req = req;
        _rec.parent = parent == kInherit ? tOpenSpan : parent;
        _rec.id = gRec.nextId();
        _rec.tid = threadId();
        _saved = tOpenSpan;
        tOpenSpan = _rec.id;
        _rec.startUs = nowUs();
    }

    ~Span()
    {
        if (!gRec.enabled)
            return;
        stop();
        tOpenSpan = _saved;
        gRec.add(std::move(_rec));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Fix the end time now; args may still be added afterwards. */
    void
    stop()
    {
        if (gRec.enabled && _rec.endUs == 0.0)
            _rec.endUs = nowUs();
    }

    uint64_t id() const { return _rec.id; }

    void
    arg(const char *key, uint64_t v)
    {
        if (gRec.enabled)
            _rec.args += strfmt(",\"%s\":%llu", key,
                                static_cast<unsigned long long>(v));
    }

    void
    arg(const char *key, const std::string &v)
    {
        if (gRec.enabled)
            _rec.args += strfmt(",\"%s\":%s", key, svc::jsonQuote(v).c_str());
    }

  private:
    SpanRecord _rec;
    uint64_t _saved = 0;
};

/** A wait that began before this thread picked the work up. */
void
recordWait(const char *name, double startUs, double endUs, uint64_t req,
           uint64_t parent)
{
    if (!gRec.enabled)
        return;
    SpanRecord s;
    s.name = name;
    s.startUs = startUs;
    s.endUs = endUs;
    s.id = gRec.nextId();
    s.parent = parent;
    s.req = req;
    s.tid = threadId();
    s.async = true;
    gRec.add(std::move(s));
}

bool
Recorder::writeChromeTrace(const std::string &path)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (const auto &[tid, name] : _threadNames) {
        sep();
        std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"tid\":%d,\"args\":{\"name\":%s}}",
                     tid, svc::jsonQuote(name).c_str());
    }
    for (const SpanRecord &s : _spans) {
        const std::string cat = s.name.substr(0, s.name.find('.'));
        const std::string ids = strfmt(
            "\"span\":%llu,\"parent\":%llu,\"req\":%llu",
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.req));
        sep();
        if (!s.async) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                         "\"args\":{%s%s}}",
                         s.name.c_str(), cat.c_str(), s.startUs,
                         s.endUs - s.startUs, s.tid, ids.c_str(),
                         s.args.c_str());
        } else {
            // Nestable async begin/end pair: waits overlap freely, so
            // they cannot share a thread's stack of complete events.
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\","
                         "\"id\":\"0x%llx\",\"ts\":%.3f,\"pid\":1,"
                         "\"tid\":%d,\"args\":{%s%s}},\n"
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\","
                         "\"id\":\"0x%llx\",\"ts\":%.3f,\"pid\":1,"
                         "\"tid\":%d}",
                         s.name.c_str(), cat.c_str(),
                         static_cast<unsigned long long>(s.id), s.startUs,
                         s.tid, ids.c_str(), s.args.c_str(), s.name.c_str(),
                         cat.c_str(), static_cast<unsigned long long>(s.id),
                         s.endUs, s.tid);
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// The request path, one layer call at a time
// ---------------------------------------------------------------------

struct Harness
{
    explicit Harness(int jobs)
        : sched(driver::PointScheduler::Config { jobs, 4096 })
    {}

    driver::PointScheduler sched;
    workloads::WorkloadRepo paper { workloads::WorkloadScale::Paper };
    workloads::WorkloadRepo tiny { workloads::WorkloadScale::Tiny };
    std::unique_ptr<driver::ResultStore> store;
    std::atomic<uint64_t> nextReq { 0 };

    void buildWorkloads(const std::vector<std::string> &scales);
    void openStore(const std::string &dir);
    void populate(const std::vector<std::string> &benches,
                  const std::vector<uint64_t> &seeds);
    std::string serve(const std::string &line);
    driver::ResultSink run(const driver::RunPlan &plan,
                           workloads::WorkloadRepo &repo,
                           driver::ResultStore *into, uint64_t req,
                           uint64_t parent);
};

void
Harness::buildWorkloads(const std::vector<std::string> &scales)
{
    for (const std::string &scale : scales) {
        workloads::WorkloadRepo &repo = scale == "paper" ? paper : tiny;
        Span s("workloads.build");
        std::shared_ptr<const workloads::MediaWorkload> wl =
            repo.get("paper");
        s.stop();
        const trace::InstArena &arena = wl->arena();
        s.arg("scale", scale);
        s.arg("insts", arena.size());
        s.arg("arena_bytes", arena.size() * sizeof(isa::TraceInst));
    }
}

void
Harness::openStore(const std::string &dir)
{
    auto fresh = std::make_unique<driver::ResultStore>();
    Span s("store.open");
    if (!fresh->openDir(dir)) {
        std::fprintf(stderr, "momsim_layers: cannot open store %s\n",
                     dir.c_str());
        std::exit(1);
    }
    s.stop();
    s.arg("rows", fresh->size());
    store = std::move(fresh);
}

/** Simulate one point, timing construction and the run separately. */
driver::ResultRow
simulate(const driver::ExperimentSpec &spec, workloads::WorkloadRepo &repo,
         uint64_t req, uint64_t parent)
{
    cpu::CoreConfig cfg =
        cpu::CoreConfig::preset(spec.threads, spec.simd, spec.policy);
    if (spec.tweakCore)
        spec.tweakCore(cfg);
    mem::MemConfig memCfg;
    if (spec.tweakMem)
        spec.tweakMem(memCfg);
    std::shared_ptr<const workloads::MediaWorkload> wl =
        repo.get(spec.workload);

    std::unique_ptr<core::Simulation> sim;
    {
        Span s("kernel.construct", req, parent);
        sim = std::make_unique<core::Simulation>(
            cfg, spec.memModel, wl->rotation(spec.simd), memCfg);
    }
    core::RunResult run;
    {
        // The loop runSpecBatch runs: arm, advance in fixed cycle
        // quanta (each caps the idle fast-forward), summarize.
        Span s("kernel.run", req, parent);
        sim->begin(spec.targetCompletions, spec.maxCycles);
        while (!sim->advance(driver::ExperimentRunner::kBatchQuantumCycles)) {
        }
        run = sim->finish();
        s.stop();
        const StatGroup &core = sim->coreRef().stats();
        const StatGroup *l1 = sim->memRef().statsOf("l1");
        s.arg("scale", std::string(repo.scale() ==
                                           workloads::WorkloadScale::Paper
                                       ? "paper" : "tiny"));
        s.arg("isa", std::string(isa::toString(spec.simd)));
        s.arg("threads", static_cast<uint64_t>(spec.threads));
        s.arg("mem", std::string(mem::toString(spec.memModel)));
        s.arg("cycles", run.cycles);
        s.arg("committed_eq", run.committedEq);
        s.arg("idle_cycles_skipped", core.get("idleCyclesSkipped"));
        s.arg("fetched", core.get("fetched"));
        s.arg("squashed", core.get("squashed"));
        s.arg("l1_accesses", l1 ? l1->get("accesses") : 0);
    }

    // The row exactly as runSpecBatch builds it.
    driver::ResultRow row;
    row.id = spec.id.empty() ? spec.canonicalId() : spec.id;
    row.workload = spec.workload;
    row.simd = spec.simd;
    row.threads = spec.threads;
    row.memModel = spec.memModel;
    row.policy = spec.policy;
    row.variant = spec.variant;
    row.seed = spec.seed;
    row.run = run;
    row.headline = driver::ResultSink::headlineOf(run, spec.simd);
    return row;
}

/**
 * Execute a plan's cache misses on the shared scheduler, the way
 * driver::runPlanOnScheduler does, with the queue wait of every point
 * (add() to its exec callback) and every store append timed.
 */
driver::ResultSink
Harness::run(const driver::RunPlan &plan, workloads::WorkloadRepo &repo,
             driver::ResultStore *into, uint64_t req, uint64_t parent)
{
    std::vector<size_t> todo;
    for (size_t i = 0; i < plan.points.size(); ++i) {
        if (!plan.points[i].cached)
            todo.push_back(i);
    }
    std::unordered_map<const driver::ExperimentSpec *, size_t> slotOf;
    for (size_t slot = 0; slot < todo.size(); ++slot)
        slotOf[&plan.points[todo[slot]].spec] = slot;
    std::vector<double> addedUs(todo.size(), 0.0);
    std::vector<driver::ResultRow> fresh(todo.size());
    std::mutex deliverMutex;

    driver::PointScheduler::Request request(
        sched,
        [&](const std::vector<const driver::ExperimentSpec *> &specs) {
            std::vector<driver::ResultRow> rows;
            for (const driver::ExperimentSpec *spec : specs) {
                recordWait("sched.queue_wait", addedUs[slotOf.at(spec)],
                           nowUs(), req, parent);
                rows.push_back(simulate(*spec, repo, req, parent));
            }
            return rows;
        },
        [&](size_t slot, const driver::ResultRow &row) {
            std::lock_guard<std::mutex> lock(deliverMutex);
            if (into) {
                Span s("store.put", req, parent);
                into->put(plan.points[todo[slot]].key, row);
            }
            fresh[slot] = row;
        });
    for (size_t slot = 0; slot < todo.size(); ++slot) {
        const driver::PlannedPoint &p = plan.points[todo[slot]];
        addedUs[slot] = nowUs();
        request.add(p.spec, p.key);
    }
    request.wait();

    driver::ResultSink sink;
    size_t next = 0;
    for (const driver::PlannedPoint &p : plan.points)
        sink.append(p.cached ? p.row : fresh[next++]);
    return sink;
}

/** A bench name or explicit axes, resolved like SimService does. */
bool
resolveGrid(const svc::SimRequest &req, driver::SweepGrid &grid,
            std::string &benchName)
{
    if (!req.bench.empty()) {
        const svc::BenchDef *def = svc::findBench(req.bench);
        if (!def || !def->hasSweep())
            return false;
        driver::BenchOptions opts;
        opts.quick = req.quick;
        opts.workloads = req.workloads;
        grid = def->grid(opts);
        benchName = def->name;
        return true;
    }
    std::vector<isa::SimdIsa> isas;
    for (const std::string &s : req.isas) {
        isas.emplace_back();
        if (!svc::parseIsaToken(s, isas.back()))
            return false;
    }
    std::vector<mem::MemModel> mems;
    for (const std::string &s : req.memModels) {
        mems.emplace_back();
        if (!svc::parseMemModelToken(s, mems.back()))
            return false;
    }
    std::vector<cpu::FetchPolicy> policies;
    for (const std::string &s : req.policies) {
        policies.emplace_back();
        if (!svc::parsePolicyToken(s, policies.back()))
            return false;
    }
    if (!isas.empty())
        grid.isas(isas);
    if (!req.threads.empty())
        grid.threadCounts(req.threads);
    if (!mems.empty())
        grid.memModels(mems);
    if (!policies.empty())
        grid.policies(policies);
    benchName.clear();
    return true;
}

/** Answer one request line; returns the response JSON. */
std::string
Harness::serve(const std::string &line)
{
    const uint64_t req = nextReq.fetch_add(1) + 1;
    const double t0 = nowUs();
    Span top("svc.request", req);

    svc::SimRequest request;
    std::string error;
    bool parsed;
    {
        Span s("svc.parse", req);
        parsed = svc::SimRequest::fromJson(line, request, error);
    }
    svc::SimResponse resp;
    driver::SweepGrid grid;
    std::string benchName;
    if (!parsed || !resolveGrid(request, grid, benchName)) {
        resp = svc::SimResponse::failure(request.id, svc::errc::kBadRequest,
                                         parsed ? "unresolvable request"
                                                : error);
    } else {
        driver::applyRunSelection(grid, request.workloads,
                                  request.maxCycles);
        workloads::WorkloadRepo &repo = request.quick ? tiny : paper;
        driver::RunPlan plan;
        {
            Span s("plan.sweep", req);
            plan = driver::planSweep(grid.expand(request.seed), repo);
            s.stop();
            s.arg("points", plan.points.size());
        }
        size_t hits = 0;
        for (driver::PlannedPoint &p : plan.points) {
            Span s("store.find", req);
            p.cached = store->find(p.key, p.row);
            s.stop();
            s.arg("hit", p.cached ? 1 : 0);
            hits += p.cached ? 1 : 0;
        }
        sched.noteDiskCacheHits(hits);
        driver::ResultSink sink = run(plan, repo, store.get(), req, top.id());

        resp.id = request.id;
        resp.client = request.client;
        resp.ok = true;
        resp.bench = benchName;
        resp.totalPoints = plan.points.size();
        resp.cachedPoints = hits;
        resp.simulatedPoints = plan.points.size() - hits;
        resp.rows = sink.rows();
    }
    resp.wallMs = (nowUs() - t0) / 1000.0;
    std::string json;
    {
        Span s("svc.to_json", req);
        json = resp.toJson(true);
        s.stop();
        s.arg("rows", resp.rows.size());
        s.arg("bytes", json.size());
    }
    return json;
}

void
Harness::populate(const std::vector<std::string> &benches,
                  const std::vector<uint64_t> &seeds)
{
    Span top("bench.populate");
    const uint64_t req = nextReq.fetch_add(1) + 1;

    // Rows do not depend on the per-task seed (it only tags the row and
    // keys the store), so each distinct point is simulated once.
    std::vector<driver::SweepGrid> grids;
    std::vector<driver::ExperimentSpec> distinct;
    std::set<std::string> seen;
    for (const std::string &name : benches) {
        const svc::BenchDef *def = svc::findBench(name);
        if (!def || !def->hasSweep()) {
            std::fprintf(stderr, "momsim_layers: no sweep bench %s\n",
                         name.c_str());
            std::exit(2);
        }
        driver::BenchOptions opts;
        opts.quick = true;
        grids.push_back(def->grid(opts));
        driver::applyRunSelection(grids.back(), {}, 0);
        for (driver::ExperimentSpec &spec : grids.back().expand(0)) {
            if (seen.insert(spec.id).second)
                distinct.push_back(std::move(spec));
        }
    }
    driver::RunPlan plan;
    {
        Span s("plan.sweep", req);
        plan = driver::planSweep(distinct, tiny);
        s.stop();
        s.arg("points", plan.points.size());
    }
    driver::ResultSink base = run(plan, tiny, nullptr, req, top.id());
    std::map<std::string, driver::ResultRow> byId;
    for (const driver::ResultRow &row : base.rows())
        byId[row.id] = row;

    const uint64_t fp = tiny.fingerprintOf("paper");
    std::set<std::string> keys;
    for (uint64_t seed : seeds) {
        for (const driver::SweepGrid &grid : grids) {
            for (const driver::ExperimentSpec &spec : grid.expand(seed)) {
                std::string key = driver::resultCacheKey(spec, fp);
                if (!keys.insert(key).second)
                    continue;
                driver::ResultRow row = byId.at(spec.id);
                row.seed = spec.seed;
                Span s("store.put", req);
                store->put(key, row);
            }
        }
    }
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "momsim_layers: %s\n"
                 "usage: momsim_layers --cache-dir DIR [--jobs N] "
                 "[--no-spans] [--build paper,tiny]\n"
                 "         [--populate BENCH,... --seeds S,...] "
                 "[--phase FILE]...\n"
                 "         [--responses FILE] [--trace-out FILE] "
                 "[--summary FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cacheDir, responsesPath, tracePath, summaryPath;
    std::vector<std::string> phases, benches;
    std::vector<std::string> scales { "paper", "tiny" };
    std::vector<uint64_t> seeds;
    int jobs = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--cache-dir")
            cacheDir = value();
        else if (arg == "--jobs")
            jobs = std::atoi(value().c_str());
        else if (arg == "--build")
            scales = splitList(value());
        else if (arg == "--no-spans")
            gRec.enabled = false;
        else if (arg == "--populate")
            benches = splitList(value());
        else if (arg == "--seeds")
            for (const std::string &s : splitList(value()))
                seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
        else if (arg == "--phase")
            phases.push_back(value());
        else if (arg == "--responses")
            responsesPath = value();
        else if (arg == "--trace-out")
            tracePath = value();
        else if (arg == "--summary")
            summaryPath = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (cacheDir.empty() || jobs < 1)
        usage("need --cache-dir DIR and --jobs >= 1");
    if (benches.empty() != seeds.empty())
        usage("--populate and --seeds go together");
    for (const std::string &scale : scales)
        if (scale != "paper" && scale != "tiny")
            usage("--build takes paper and/or tiny");

    // Read every phase up front so file I/O stays outside the spans.
    std::vector<std::map<int, std::vector<std::string>>> scripts;
    for (const std::string &path : phases) {
        std::ifstream in(path);
        if (!in)
            usage(("cannot read phase file " + path).c_str());
        std::map<int, std::vector<std::string>> byClient;
        std::string line;
        while (std::getline(in, line)) {
            size_t tab = line.find('\t');
            if (tab == std::string::npos)
                continue;
            byClient[std::atoi(line.substr(0, tab).c_str())].push_back(
                line.substr(tab + 1));
        }
        scripts.push_back(std::move(byClient));
    }

    // Each client's replies stay in memory until the timed window has
    // closed, so writing them is charged to neither mode.
    size_t nClients = 0;
    for (const auto &script : scripts)
        nClients += script.size();
    std::vector<std::vector<std::string>> replies(nClients);

    Harness h(jobs);
    gRec.nameThread(threadId(), "main");
    const double t0 = nowUs();
    double replayMs = 0.0;
    {
        Span root("run");
        h.buildWorkloads(scales);
        h.openStore(cacheDir);
        if (!benches.empty()) {
            h.populate(benches, seeds);
            h.openStore(cacheDir);
        }
        size_t slot = 0;
        const double replayStart = nowUs();
        for (const auto &script : scripts) {
            std::vector<std::thread> clients;
            for (const auto &[client, lines] : script) {
                clients.emplace_back([&h, &lines, &out = replies[slot++],
                                      client = client, parent = root.id()] {
                    gRec.nameThread(threadId(),
                                    strfmt("client %d", client));
                    tOpenSpan = parent;
                    for (const std::string &line : lines)
                        out.push_back(h.serve(line));
                });
            }
            for (std::thread &t : clients)
                t.join();
        }
        replayMs = (nowUs() - replayStart) / 1000.0;
        h.openStore(cacheDir);
    }
    const double wallMs = (nowUs() - t0) / 1000.0;

    if (!responsesPath.empty()) {
        std::FILE *f = std::fopen(responsesPath.c_str(), "w");
        if (!f)
            usage("cannot write --responses file");
        for (const auto &client : replies)
            for (const std::string &json : client)
                std::fprintf(f, "%s\n", json.c_str());
        if (std::fclose(f) != 0)
            usage("cannot finish --responses file");
    }
    if (!tracePath.empty() && gRec.enabled &&
        !gRec.writeChromeTrace(tracePath))
        usage("cannot write --trace-out file");
    if (!summaryPath.empty()) {
        std::FILE *f = std::fopen(summaryPath.c_str(), "w");
        if (!f)
            usage("cannot write --summary file");
        std::fprintf(f, "{\"wall_ms\":%.3f,\"replay_ms\":%.3f}\n", wallMs,
                     replayMs);
        std::fclose(f);
    }
    return 0;
}
