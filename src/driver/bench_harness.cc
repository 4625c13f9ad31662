#include "driver/bench_harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/flags.hh"
#include "common/logging.hh"
#include "driver/point_scheduler.hh"
#include "driver/result_store.hh"
#include "workloads/workload_spec.hh"

namespace momsim::driver
{

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::string text = BenchOptions::usageText(argv0);
    std::fprintf(stderr, "%s\n", text.c_str());
    std::exit(2);
}

/** Split a comma-separated list, dropping empty segments. */
void
splitCommaList(const std::string &v, std::vector<std::string> &out)
{
    size_t start = 0;
    while (start <= v.size()) {
        size_t comma = v.find(',', start);
        if (comma == std::string::npos)
            comma = v.size();
        if (comma > start)
            out.push_back(v.substr(start, comma - start));
        start = comma + 1;
    }
}

void
printPlan(const RunPlan &plan, const std::string &name,
          const std::vector<std::string> &workloadNames,
          workloads::WorkloadRepo &repo)
{
    std::printf("plan %s: total=%zu shard=%d/%d cached=%zu simulated=%zu "
                "foreign=%zu schema=v%d\n",
                name.c_str(), plan.points.size(), plan.shardIndex + 1,
                plan.shardCount, plan.cachedMineCount(),
                plan.simulateCount(),
                plan.points.size() - plan.mineCount(),
                kResultSchemaVersion);
    for (const std::string &wl : workloadNames)
        std::printf("  workload %s: fingerprint=%016llx programs=%d\n",
                    wl.c_str(),
                    static_cast<unsigned long long>(repo.fingerprintOf(wl)),
                    repo.get(wl)->numPrograms());
    for (const PlannedPoint &p : plan.points)
        std::printf("  %-52s shard=%d/%d cost=%.2f %s\n",
                    p.spec.id.c_str(), p.shard + 1, plan.shardCount,
                    p.cost, p.cached ? "cached" : "miss");
}

} // namespace

const std::vector<BenchFlagInfo> &
BenchOptions::flagTable()
{
    // The one place a harness flag is declared. parseInto() dispatches
    // over these spellings; test_bench_options asserts the two agree
    // (every table flag parses, every parsed flag is in the table).
    static const std::vector<BenchFlagInfo> table = {
        { "--jobs", "-j", "N",
          "worker threads for the sweep (default: all hardware)" },
        { "--quick", nullptr, nullptr,
          "tiny workload scale, for smoke tests and CI" },
        { "--workload", nullptr, "NAME[,NAME...]",
          "registry workload specs to sweep as an axis (default: "
          "\"paper\", the Table-2 mix); repeatable" },
        { "--list-workloads", nullptr, nullptr,
          "print the workload registry and exit" },
        { "--csv", nullptr, "PATH",
          "write the raw sweep results as CSV" },
        { "--json", nullptr, "PATH",
          "write the raw sweep results as JSON" },
        { "--max-cycles", nullptr, "N",
          "cap every simulation at N cycles (default: the grid's own "
          "limit, normally 400M)" },
        { "--seed", nullptr, "S",
          "base of the identity-derived per-task seeds recorded in the "
          "CSV/JSON rows" },
        { "--cache-dir", nullptr, "DIR",
          "persist completed rows to DIR/results.jsonl and replay them "
          "on re-runs" },
        { "--shard", nullptr, "I/N",
          "run only the I-th of N cost-weighted slices of the sweep "
          "(1-based)" },
        { "--merge", nullptr, "FILE[,FILE...]",
          "preload per-shard store files as cache hits" },
        { "--dry-run", nullptr, nullptr,
          "print the plan (ids, shards, cache hits, fingerprints) and "
          "exit without simulating" },
        { "--help", "-h", nullptr, "print this help and exit" },
    };
    return table;
}

bool
BenchOptions::takesValue(const char *flag)
{
    for (const BenchFlagInfo &info : flagTable()) {
        if (std::strcmp(flag, info.flag) == 0 ||
            (info.alias && std::strcmp(flag, info.alias) == 0))
            return info.valueName != nullptr;
    }
    return false;
}

bool
BenchOptions::isKnownFlag(const char *arg)
{
    for (const BenchFlagInfo &info : flagTable()) {
        if (std::strcmp(arg, info.flag) == 0 ||
            (info.alias && std::strcmp(arg, info.alias) == 0))
            return true;
    }
    return false;
}

std::string
BenchOptions::usageText(const char *argv0)
{
    // One bracketed token per table entry, wrapped at ~72 columns and
    // aligned under the first flag.
    std::string head = strfmt("usage: %s ", argv0);
    std::string indent(head.size() > 30 ? 10 : head.size(), ' ');
    std::string out = head;
    size_t col = head.size();
    bool first = true;
    for (const BenchFlagInfo &info : flagTable()) {
        std::string tok = "[";
        tok += info.flag;
        if (info.valueName) {
            tok += ' ';
            tok += info.valueName;
        }
        tok += ']';
        if (!first && col + 1 + tok.size() > 72) {
            out += "\n" + indent;
            col = indent.size();
        } else if (!first) {
            out += ' ';
            ++col;
        }
        out += tok;
        col += tok.size();
        first = false;
    }
    return out;
}

std::string
BenchOptions::helpText()
{
    std::string out;
    for (const BenchFlagInfo &info : flagTable()) {
        std::string spelling = info.flag;
        if (info.alias) {
            spelling += ", ";
            spelling += info.alias;
        }
        if (info.valueName) {
            spelling += ' ';
            spelling += info.valueName;
        }
        out += strfmt("  %-28s %s\n", spelling.c_str(), info.help);
    }
    return out;
}

bool
BenchOptions::parseInto(int argc, char **argv, BenchOptions &out,
                        std::string &error,
                        std::vector<std::string> *positionals)
{
    BenchOptions opts;
    auto value = [&](int &i, const char **v) {
        if (i + 1 >= argc) {
            error = strfmt("%s expects a value", argv[i]);
            return false;
        }
        *v = argv[++i];
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *v = nullptr;
        if (std::strcmp(arg, "--jobs") == 0 ||
            std::strcmp(arg, "-j") == 0) {
            if (!value(i, &v))
                return false;
            if (!parseIntFlag(v, 1, opts.jobs)) {
                error = strfmt("bad --jobs '%s' (want an integer >= 1)", v);
                return false;
            }
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(arg, "--seed") == 0) {
            if (!value(i, &v))
                return false;
            if (!parseU64Flag(v, opts.baseSeed)) {
                error = strfmt("bad --seed '%s' (want an unsigned "
                               "integer)", v);
                return false;
            }
        } else if (std::strcmp(arg, "--max-cycles") == 0) {
            if (!value(i, &v))
                return false;
            if (!parseU64Flag(v, opts.maxCycles) || opts.maxCycles < 1) {
                error = strfmt("bad --max-cycles '%s' (want an integer "
                               ">= 1)", v);
                return false;
            }
        } else if (std::strcmp(arg, "--csv") == 0) {
            if (!value(i, &v))
                return false;
            opts.csvPath = v;
        } else if (std::strcmp(arg, "--json") == 0) {
            if (!value(i, &v))
                return false;
            opts.jsonPath = v;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            if (!value(i, &v))
                return false;
            opts.cacheDir = v;
        } else if (std::strcmp(arg, "--shard") == 0) {
            if (!value(i, &v))
                return false;
            int consumed = 0;
            if (std::sscanf(v, "%d/%d%n", &opts.shardIndex,
                            &opts.shardCount, &consumed) != 2 ||
                v[consumed] != '\0' ||  // trailing garbage: "1/3,2/3"
                opts.shardCount < 1 || opts.shardIndex < 1 ||
                opts.shardIndex > opts.shardCount) {
                error = strfmt("bad --shard '%s' (want I/N with "
                               "1 <= I <= N)", v);
                return false;
            }
        } else if (std::strcmp(arg, "--merge") == 0) {
            if (!value(i, &v))
                return false;
            splitCommaList(v, opts.mergePaths);
        } else if (std::strcmp(arg, "--workload") == 0) {
            if (!value(i, &v))
                return false;
            std::vector<std::string> names;
            splitCommaList(v, names);
            if (names.empty()) {
                error = strfmt("bad --workload '%s' (want "
                               "NAME[,NAME...])", v);
                return false;
            }
            for (const std::string &name : names) {
                if (!workloads::WorkloadSpec::isKnown(name)) {
                    error = strfmt("unknown workload '%s' (see "
                                   "--list-workloads)", name.c_str());
                    return false;
                }
                // Dedup, keeping first-seen order: a repeated name
                // would expand duplicate sweep points with identical
                // ids, seeds and cache keys.
                if (std::find(opts.workloads.begin(),
                              opts.workloads.end(),
                              name) == opts.workloads.end())
                    opts.workloads.push_back(name);
            }
        } else if (std::strcmp(arg, "--list-workloads") == 0) {
            opts.listWorkloads = true;
        } else if (std::strcmp(arg, "--dry-run") == 0) {
            opts.dryRun = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            error = "";     // empty error: plain usage request
            return false;
        } else if (positionals && std::strncmp(arg, "--", 2) != 0) {
            // Subcommands with positional operands: every token that
            // is not a "--" flag (or a known short alias, handled
            // above) stays positional — including negative numbers.
            positionals->push_back(arg);
        } else {
            error = strfmt("unknown argument: %s", arg);
            return false;
        }
    }
    out = std::move(opts);
    return true;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    return parse(argc, argv, nullptr);
}

BenchOptions
BenchOptions::parse(int argc, char **argv,
                    std::vector<std::string> *positionals)
{
    BenchOptions opts;
    std::string error;
    if (!parseInto(argc, argv, opts, error, positionals)) {
        if (error.empty()) {
            // An explicit --help/-h request: full generated help on
            // stdout, success exit — unlike real parse errors, which
            // go to stderr with exit 2.
            std::printf("%s\n\nflags:\n%s",
                        usageText(argv[0]).c_str(), helpText().c_str());
            std::exit(0);
        }
        std::fprintf(stderr, "%s\n", error.c_str());
        usage(argv[0]);
    }
    if (opts.listWorkloads) {
        std::printf("workload registry (--workload NAME[,NAME...]):\n");
        for (const workloads::WorkloadSpec &spec :
             workloads::WorkloadSpec::registry()) {
            std::string mix;
            for (size_t i = 0; i < spec.slots.size(); ++i) {
                if (i)
                    mix += " ";
                mix += workloads::toString(spec.slots[i]);
            }
            std::printf("  %-14s %s\n                 [%s]\n",
                        spec.name.c_str(), spec.description.c_str(),
                        mix.c_str());
        }
        std::printf("  %-14s the paper mix repeated N times "
                    "(2 <= N <= 8)\n", "paperxN");
        std::exit(0);
    }
    return opts;
}

BenchHarness::BenchHarness(const BenchOptions &opts, std::string name)
    : _opts(opts), _name(std::move(name)),
      _repo(opts.quick ? workloads::WorkloadScale::Tiny
                       : workloads::WorkloadScale::Paper),
      _workloadNames(opts.workloads.empty()
                         ? std::vector<std::string> { "paper" }
                         : opts.workloads)
{}

BenchHarness::~BenchHarness()
{
    if (_ranSweep)
        return;
    if (_opts.dryRun || _opts.shardCount > 1 || !_opts.cacheDir.empty() ||
        !_opts.mergePaths.empty()) {
        std::fprintf(stderr,
                     "[bench] note: --dry-run/--shard/--cache-dir/--merge "
                     "affect sweeps only; %s ran none\n", _name.c_str());
    }
}

void
BenchHarness::declareNoSweep()
{
    _ranSweep = true;   // the destructor note would be redundant now
    if (_opts.shardCount > 1 || !_opts.cacheDir.empty() ||
        !_opts.mergePaths.empty()) {
        std::fprintf(stderr,
                     "[bench] note: %s has no sweep stage; "
                     "--shard/--cache-dir/--merge have no effect\n",
                     _name.c_str());
    }
    if (_opts.dryRun) {
        std::printf("plan %s: no sweep stage (nothing to plan)\n",
                    _name.c_str());
        std::exit(0);
    }
}

ExperimentRunner &
BenchHarness::runner()
{
    if (!_runner) {
        _sched = std::make_unique<PointScheduler>(
            PointScheduler::Config { _opts.jobs });
        _runner = std::make_unique<ExperimentRunner>(_repo, *_sched);
    }
    return *_runner;
}

ResultSink
BenchHarness::run(const SweepGrid &grid)
{
    _ranSweep = true;

    // Grids that pin their own workload axis (the mix-sensitivity
    // bench) win; everything else sweeps the --workload selection.
    // applyRunSelection is shared with SimService::submit, so the CLI
    // and the service agree on these key-affecting folds by
    // construction.
    SweepGrid g = grid;
    applyRunSelection(g, _workloadNames, _opts.maxCycles);
    _lastWorkloads = g.workloadList();

    ResultStore store;
    const bool persist = !_opts.cacheDir.empty();
    if (persist && !store.openDir(_opts.cacheDir))
        fatal("cannot open --cache-dir " + _opts.cacheDir);
    for (const std::string &path : _opts.mergePaths) {
        if (!store.loadFile(path))
            fatal("cannot read --merge store " + path);
    }

    // Every workload of the grid participates in the plan keys, so all
    // of them must exist before planning; distinct specs synthesize
    // concurrently.
    const size_t toBuild = _repo.missing(_lastWorkloads).size();
    if (toBuild != 0) {
        std::fprintf(stderr, "[bench] building %zu workload(s) at %s "
                             "scale (both ISAs)...\n", toBuild,
                     _opts.quick ? "tiny" : "paper");
        _repo.prebuild(_lastWorkloads, _opts.jobs);
        std::fprintf(stderr, "[bench] workloads ready\n");
    }

    RunPlan plan = planSweep(g.expand(_opts.baseSeed), _repo, &store,
                             _opts.shardIndex - 1, _opts.shardCount);

    if (_opts.dryRun) {
        printPlan(plan, _name, _lastWorkloads, _repo);
        std::exit(0);
    }

    if (_opts.shardCount > 1) {
        // On stdout deliberately: anyone reading or piping a shard
        // run's table must see it is partial. Unsharded and --merge
        // runs never print this, so their stdout stays canonical.
        std::printf("[shard %d/%d] partial sweep: %zu of %zu points; "
                    "foreign points print as 0.0 — merge the per-shard "
                    "stores for the full figure\n",
                    _opts.shardIndex, _opts.shardCount, plan.mineCount(),
                    plan.points.size());
    }

    std::fprintf(stderr,
                 "[bench] %s plan: total=%zu cached=%zu simulated=%zu "
                 "foreign=%zu (shard %d/%d)\n",
                 _name.c_str(), plan.points.size(), plan.cachedMineCount(),
                 plan.simulateCount(),
                 plan.points.size() - plan.mineCount(), _opts.shardIndex,
                 _opts.shardCount);

    ResultSink sink = runner().run(plan, persist ? &store : nullptr);
    std::fprintf(stderr,
                 "[bench] %zu experiments on %d worker(s); "
                 "serial cost %.0f ms\n",
                 sink.size(), _sched->workers(), sink.totalWallMs());
    if (!_opts.csvPath.empty()) {
        if (!sink.writeCsv(_opts.csvPath))
            fatal("cannot write CSV to " + _opts.csvPath);
        std::fprintf(stderr, "[bench] wrote %s\n", _opts.csvPath.c_str());
    }
    if (!_opts.jsonPath.empty()) {
        if (!sink.writeJson(_opts.jsonPath))
            fatal("cannot write JSON to " + _opts.jsonPath);
        std::fprintf(stderr, "[bench] wrote %s\n", _opts.jsonPath.c_str());
    }
    return sink;
}

} // namespace momsim::driver
