/**
 * @file
 * Shared command-line harness for the figure/table subcommands of the
 * `momsim` multi-tool and the examples — the successor of
 * bench/bench_util.hh's hand-rolled loops.
 *
 * The flags every subcommand accepts are defined once, in
 * BenchOptions::flagTable(): spelling, alias, value placeholder and
 * help line. takesValue(), the usage synopsis, `momsim help <bench>`
 * and this documentation all derive from that table, so they cannot
 * drift from the parser. Flags worth extra context beyond their table
 * help line:
 *
 *   --max-cycles  the cap is part of the result-store key, so rows
 *                 cached under different limits never collide
 *   --seed        today's simulations are fully deterministic and
 *                 consume no randomness, so --seed never changes
 *                 results — it exists so future stochastic components
 *                 inherit per-task reproducibility
 *   --cache-dir   rows are keyed by (point id, per-workload
 *                 fingerprint, schema version); re-runs simulate only
 *                 the keys that miss and splice cached rows back so
 *                 stdout stays byte-identical
 *   --shard       the slicing is deterministic and cost-weighted, so N
 *                 processes with --cache-dir cover the sweep exactly
 *                 once between them
 *   --merge       with every shard's store present the run simulates
 *                 nothing and reproduces the canonical unsharded output
 *
 * The harness owns a WorkloadRepo (at the scale --quick selects) that
 * builds each selected workload lazily, once, sharing it across every
 * sweep point; distinct workloads build concurrently on up to --jobs
 * threads. It plans every sweep through the result store (see
 * result_store.hh) and executes it with an ExperimentRunner on a
 * --jobs-worker PointScheduler — the engine SimService runs requests
 * on. All harness chatter goes to stderr so stdout stays
 * byte-comparable across --jobs / --cache-dir / shard-and-merge
 * settings.
 */

#ifndef MOMSIM_DRIVER_BENCH_HARNESS_HH
#define MOMSIM_DRIVER_BENCH_HARNESS_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "driver/experiment.hh"

namespace momsim::driver
{

/**
 * One harness flag: its spelling, optional short alias, the
 * placeholder name of its value (nullptr for boolean flags) and a
 * one-line help string. The single source of truth behind
 * BenchOptions::takesValue(), the generated usage/help text and the
 * `momsim help` output — the parser, the usage string and the docs can
 * no longer drift apart.
 */
struct BenchFlagInfo
{
    const char *flag;           ///< "--jobs"
    const char *alias;          ///< "-j", or nullptr
    const char *valueName;      ///< "N", or nullptr for boolean flags
    const char *help;           ///< one-line description
};

struct BenchOptions
{
    int jobs = 0;               ///< 0 => hardware concurrency
    bool quick = false;
    bool dryRun = false;
    bool listWorkloads = false; ///< print the registry and exit
    uint64_t baseSeed = 0;
    uint64_t maxCycles = 0;     ///< 0 => keep the grid's own limit
    int shardIndex = 1;         ///< 1-based, <= shardCount
    int shardCount = 1;
    std::string csvPath;
    std::string jsonPath;
    std::string cacheDir;
    std::vector<std::string> mergePaths;
    /** --workload selections; empty means the default ("paper"). */
    std::vector<std::string> workloads;

    /**
     * Parse argv. On any problem (unknown flag, missing value, bad
     * --shard, unknown workload) prints a one-line error plus usage
     * and exits nonzero; --list-workloads prints the registry and
     * exits 0.
     */
    static BenchOptions parse(int argc, char **argv);

    /**
     * As parse(), but tokens that are not harness flags land in
     * @p positionals (in argv order) instead of erroring — the calling
     * convention of subcommands that take positional arguments (the
     * explorer). "-"-prefixed tokens other than the known aliases stay
     * positional too, so a negative number is never eaten as a flag.
     */
    static BenchOptions parse(int argc, char **argv,
                              std::vector<std::string> *positionals);

    /**
     * Non-exiting core of parse(): fills @p out, or returns false with
     * a one-line description in @p error. Exists so argument handling
     * is unit-testable without forking. When @p positionals is given,
     * non-flag tokens collect there instead of rejecting.
     */
    static bool parseInto(int argc, char **argv, BenchOptions &out,
                          std::string &error,
                          std::vector<std::string> *positionals = nullptr);

    /**
     * True if @p flag is a harness flag that consumes the following
     * token. Derived from flagTable(). For callers that mix harness
     * flags with their own positional arguments.
     */
    static bool takesValue(const char *flag);

    /** True if @p arg is any known harness flag (either spelling). */
    static bool isKnownFlag(const char *arg);

    /** The flag registry every piece of help text is generated from. */
    static const std::vector<BenchFlagInfo> &flagTable();

    /** The generated one-screen usage synopsis (no trailing newline). */
    static std::string usageText(const char *argv0);

    /** The generated per-flag help table (flag, value, description). */
    static std::string helpText();
};

class BenchHarness
{
  public:
    explicit BenchHarness(const BenchOptions &opts,
                          std::string name = "sweep");
    BenchHarness(int argc, char **argv, std::string name = "sweep")
        : BenchHarness(BenchOptions::parse(argc, argv), std::move(name))
    {}
    ~BenchHarness();

    const BenchOptions &options() const { return _opts; }
    bool quick() const { return _opts.quick; }
    const std::string &name() const { return _name; }

    /**
     * The user's --workload selection (default: {"paper"}). Benches
     * with no sweep stage iterate this; sweeping benches get it folded
     * into their grid by run().
     */
    const std::vector<std::string> &workloadNames() const
    {
        return _workloadNames;
    }

    /** The workload cache (Paper scale normally, Tiny under --quick). */
    workloads::WorkloadRepo &repo() { return _repo; }

    /** The sweep engine (created, with its workers, on first use). */
    ExperimentRunner &runner();

    /**
     * Plan the grid (cache lookups, shard assignment), honour
     * --dry-run, execute via the planned runner path, then honour any
     * --csv/--json request and report plan + sweep cost on stderr.
     * Grids that left the workload axis unset sweep the --workload
     * selection.
     */
    ResultSink run(const SweepGrid &grid);

    /**
     * Invoke @p fn(sub-sink, name) once per workload of the last run()
     * grid, in axis order, printing a stdout section header between
     * workloads when there is more than one — so single-workload runs
     * keep the one-table output shape they always had.
     */
    template <typename Fn>
    void
    perWorkload(const ResultSink &sink, Fn &&fn)
    {
        const std::vector<std::string> &names =
            _lastWorkloads.empty() ? _workloadNames : _lastWorkloads;
        for (const std::string &name : names) {
            sectionHeader(names, name);
            fn(sink.filtered(name), name);
        }
    }

    /**
     * The no-sweep-bench variant (table2/table3): @p fn(workload,
     * name) once per --workload selection, building each lazily, with
     * the same section-header rule as above.
     */
    template <typename Fn>
    void
    perWorkload(Fn &&fn)
    {
        for (const std::string &name : _workloadNames) {
            sectionHeader(_workloadNames, name);
            fn(*_repo.get(name), name);
        }
    }

    /**
     * For benches with no sweep stage (table2/table3, which read the
     * workload's traces directly). Call before doing any work:
     * --dry-run prints an empty plan and exits immediately, and
     * shard/cache/merge flags draw an upfront no-effect warning
     * instead of N shard processes silently redoing 100% of the work
     * each.
     */
    void declareNoSweep();

  private:
    /** One header per mix, only when the run spans more than one. */
    static void
    sectionHeader(const std::vector<std::string> &names,
                  const std::string &name)
    {
        if (names.size() > 1)
            std::printf("\n=== workload: %s ===\n", name.c_str());
    }

    BenchOptions _opts;
    std::string _name;
    workloads::WorkloadRepo _repo;
    std::vector<std::string> _workloadNames;
    std::vector<std::string> _lastWorkloads;    ///< last run() grid axis
    std::unique_ptr<PointScheduler> _sched;
    std::unique_ptr<ExperimentRunner> _runner;
    bool _ranSweep = false;
};

} // namespace momsim::driver

#endif // MOMSIM_DRIVER_BENCH_HARNESS_HH
