#include "driver/result_sink.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace momsim::driver
{

namespace
{

/** Quote a CSV field only when it needs it (comma, quote, newline). */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Fixed double rendering so serializations are byte-stable. */
std::string
num(double v)
{
    // momlint: allow(float-format) deliberate display precision: CSV/table
    // renders quantize for readability; the store keeps the exact %.17g
    return strfmt("%.6g", v);
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = n == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (char c : s) {
        auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (u < 0x20) {
            // Raw control characters are illegal in JSON strings.
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        } else {
            out += c;
        }
    }
}

ResultSink
ResultSink::filtered(const std::string &workload) const
{
    ResultSink out;
    for (const ResultRow &r : _rows) {
        if (r.workload == workload)
            out.append(r);
    }
    return out;
}

const ResultRow *
ResultSink::find(isa::SimdIsa simd, int threads, mem::MemModel memModel,
                 cpu::FetchPolicy policy, const std::string &variant) const
{
    for (const ResultRow &r : _rows) {
        if (r.simd == simd && r.threads == threads &&
            r.memModel == memModel && r.policy == policy &&
            r.variant == variant) {
            return &r;
        }
    }
    return nullptr;
}

double
ResultSink::headlineAt(isa::SimdIsa simd, int threads,
                       mem::MemModel memModel, cpu::FetchPolicy policy,
                       const std::string &variant) const
{
    const ResultRow *r = find(simd, threads, memModel, policy, variant);
    return r ? r->headline : 0.0;
}

double
ResultSink::totalWallMs() const
{
    double total = 0.0;
    for (const ResultRow &r : _rows)
        total += r.wallMs;
    return total;
}

std::string
ResultSink::toCsv() const
{
    // sim_kcps and wall_ms (the run's nondeterministic self-measurement)
    // stay the last two columns so consumers comparing simulation
    // results can strip them with a single tail cut — the
    // kernel_equivalence gate does exactly that.
    std::string out =
        "id,workload,isa,threads,mem,policy,variant,seed,cycles,"
        "committed_eq,ipc,eipc,headline,l1_hit_rate,icache_hit_rate,"
        "l1_avg_latency,mispredicts,cond_branches,completions,"
        "hit_cycle_limit,sim_kcps,wall_ms\n";
    for (const ResultRow &r : _rows) {
        out += csvField(r.id);
        out += ",";
        out += csvField(r.workload);
        out += strfmt(",%s,%d,%s,%s,", isa::toString(r.simd), r.threads,
                      mem::toString(r.memModel), cpu::toString(r.policy));
        out += csvField(r.variant);
        out += strfmt(",%llu,%llu,%llu",
                      static_cast<unsigned long long>(r.seed),
                      static_cast<unsigned long long>(r.run.cycles),
                      static_cast<unsigned long long>(r.run.committedEq));
        out += "," + num(r.run.ipc) + "," + num(r.run.eipc) + "," +
               num(r.headline) + "," + num(r.run.l1HitRate) + "," +
               num(r.run.icacheHitRate) + "," + num(r.run.l1AvgLatency);
        out += strfmt(",%llu,%llu,%d,%d",
                      static_cast<unsigned long long>(r.run.mispredicts),
                      static_cast<unsigned long long>(r.run.condBranches),
                      r.run.completions, r.run.hitCycleLimit ? 1 : 0);
        out += "," + num(r.run.simKcps) + "," + num(r.run.wallMs) + "\n";
    }
    return out;
}

std::string
ResultSink::toJson() const
{
    std::string out = "[\n";
    for (size_t i = 0; i < _rows.size(); ++i) {
        const ResultRow &r = _rows[i];
        out += "  {";
        out += strfmt("\"id\":\"%s\",", jsonEscape(r.id).c_str());
        out += strfmt("\"workload\":\"%s\",",
                      jsonEscape(r.workload).c_str());
        out += strfmt("\"isa\":\"%s\",\"threads\":%d,",
                      isa::toString(r.simd), r.threads);
        out += strfmt("\"mem\":\"%s\",\"policy\":\"%s\",",
                      mem::toString(r.memModel), cpu::toString(r.policy));
        out += strfmt("\"variant\":\"%s\",\"seed\":%llu,",
                      jsonEscape(r.variant).c_str(),
                      static_cast<unsigned long long>(r.seed));
        out += strfmt("\"cycles\":%llu,\"committed_eq\":%llu,",
                      static_cast<unsigned long long>(r.run.cycles),
                      static_cast<unsigned long long>(r.run.committedEq));
        out += "\"ipc\":" + num(r.run.ipc) + ",\"eipc\":" + num(r.run.eipc) +
               ",\"headline\":" + num(r.headline) +
               ",\"l1_hit_rate\":" + num(r.run.l1HitRate) +
               ",\"icache_hit_rate\":" + num(r.run.icacheHitRate) +
               ",\"l1_avg_latency\":" + num(r.run.l1AvgLatency);
        out += strfmt(",\"mispredicts\":%llu,\"cond_branches\":%llu,"
                      "\"completions\":%d,\"hit_cycle_limit\":%s",
                      static_cast<unsigned long long>(r.run.mispredicts),
                      static_cast<unsigned long long>(r.run.condBranches),
                      r.run.completions,
                      r.run.hitCycleLimit ? "true" : "false");
        out += ",\"sim_kcps\":" + num(r.run.simKcps) +
               ",\"wall_ms\":" + num(r.run.wallMs) + "}";
        out += i + 1 < _rows.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

bool
ResultSink::writeCsv(const std::string &path) const
{
    return writeFile(path, toCsv());
}

bool
ResultSink::writeJson(const std::string &path) const
{
    return writeFile(path, toJson());
}

double
ResultSink::headlineOf(const core::RunResult &r, isa::SimdIsa simd)
{
    return simd == isa::SimdIsa::Mom ? r.eipc : r.ipc;
}

const char *
ResultSink::headlineName(isa::SimdIsa simd)
{
    return simd == isa::SimdIsa::Mom ? "EIPC" : "IPC";
}

double
ResultSink::geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

std::string
ResultSink::rule(int width, char fill)
{
    return std::string(static_cast<size_t>(width < 0 ? 0 : width), fill);
}

} // namespace momsim::driver
