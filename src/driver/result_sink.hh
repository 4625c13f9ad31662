/**
 * @file
 * Aggregation endpoint of the experiment runner.
 *
 * Every completed experiment lands here as one ResultRow, in sweep
 * order (never completion order), so the sink's contents — and the CSV
 * and JSON renderings — are byte-identical no matter how many worker
 * threads executed the sweep, with one deliberate exception: the two
 * schema-v4 tail columns (sim_kcps, wall_ms) are the run's wall-clock
 * self-measurement and vary run to run. They stay last so consumers
 * that compare simulation results can cut them with a single tail
 * strip, which is exactly what the kernel_equivalence gate does.
 *
 * The sink also owns the presentation helpers the benches share: the
 * headline metric (IPC for MMX machines, EIPC for MOM machines, the
 * paper's comparison basis), geometric means, and table rules. These
 * used to be copy-pasted across bench/bench_util.hh and the figure
 * drivers.
 */

#ifndef MOMSIM_DRIVER_RESULT_SINK_HH
#define MOMSIM_DRIVER_RESULT_SINK_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hh"
#include "cpu/fetch_policy.hh"
#include "isa/simd_isa.hh"
#include "mem/hierarchy.hh"

namespace momsim::driver
{

/**
 * Escape a string for embedding in a JSON double-quoted literal.
 * Shared by the sink's presentation JSON and the result store's
 * JSON-lines format so the two can never drift.
 */
std::string jsonEscape(const std::string &s);

/** jsonEscape(@p s) appended to @p out, with no temporary string. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** One experiment's identity and measurements. */
struct ResultRow
{
    std::string id;
    std::string workload = "paper";     ///< registry workload name
    isa::SimdIsa simd = isa::SimdIsa::Mmx;
    int threads = 1;
    mem::MemModel memModel = mem::MemModel::Conventional;
    cpu::FetchPolicy policy = cpu::FetchPolicy::RoundRobin;
    std::string variant;        ///< grid-variant label ("" if none)
    uint64_t seed = 0;
    core::RunResult run;
    double headline = 0.0;      ///< IPC (MMX) or EIPC (MOM)
    /**
     * Wall-clock of the whole experiment (workload resolution + run);
     * informational only, never serialized. The *simulation loop's* own
     * wall clock and throughput live in run.wallMs / run.simKcps and
     * are serialized (schema v4) as the tail columns of CSV/JSON rows.
     */
    double wallMs = 0.0;
};

class ResultSink
{
  public:
    void append(ResultRow row) { _rows.push_back(std::move(row)); }

    const std::vector<ResultRow> &rows() const { return _rows; }
    size_t size() const { return _rows.size(); }
    bool empty() const { return _rows.empty(); }

    /**
     * Rows of one workload, in sweep order. Multi-workload sweeps
     * filter before using the coordinate lookups below, which are
     * workload-agnostic (they return the first row at the
     * coordinates, whatever mix produced it).
     */
    ResultSink filtered(const std::string &workload) const;

    /** Row lookup by sweep coordinates; nullptr when absent/skipped. */
    const ResultRow *find(isa::SimdIsa simd, int threads,
                          mem::MemModel memModel, cpu::FetchPolicy policy,
                          const std::string &variant = "") const;

    /**
     * Headline metric at the given coordinates, or 0.0 when the point
     * was skipped (the benches print skipped combinations as 0.0).
     */
    double headlineAt(isa::SimdIsa simd, int threads,
                      mem::MemModel memModel, cpu::FetchPolicy policy,
                      const std::string &variant = "") const;

    /** Sum of per-run wall clock (the serial cost of the sweep). */
    double totalWallMs() const;

    // ---- serialization (deterministic: sweep order, fixed formats) ----
    std::string toCsv() const;
    std::string toJson() const;
    bool writeCsv(const std::string &path) const;
    bool writeJson(const std::string &path) const;

    // ---- shared presentation helpers (ex bench_util.hh) ----

    /** The paper's comparison basis: IPC for MMX, EIPC for MOM. */
    static double headlineOf(const core::RunResult &r, isa::SimdIsa simd);
    static const char *headlineName(isa::SimdIsa simd);

    /** Geometric mean; 0.0 for an empty set or any non-positive term. */
    static double geomean(const std::vector<double> &xs);

    /** A horizontal table rule of @p width characters. */
    static std::string rule(int width, char fill = '-');

  private:
    std::vector<ResultRow> _rows;
};

} // namespace momsim::driver

#endif // MOMSIM_DRIVER_RESULT_SINK_HH
