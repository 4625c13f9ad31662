#include "svc/bench_registry.hh"

namespace momsim::svc
{

const std::vector<BenchDef> &
benchRegistry()
{
    // Listed in the figure/table order of the paper, the order
    // `momsim list` prints. Construction is thread-safe (magic
    // statics) because SimService::start resolves names concurrently.
    static const std::vector<BenchDef> registry = {
        makeTable1Def(),  makeTable2Def(),   makeTable3Def(),
        makeFig4Def(),    makeFig5Def(),     makeFig6Def(),
        makeFig8Def(),    makeFig9Def(),     makeTable4Def(),
        makeAblationDef(), makeWorkloadMixDef(), makeSimThroughputDef(),
        makeExplorerDef(),
    };
    return registry;
}

const BenchDef *
findBench(const std::string &name)
{
    for (const BenchDef &def : benchRegistry()) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

int
runBench(const BenchDef &def, int argc, char **argv)
{
    std::vector<std::string> positionals;
    driver::BenchOptions opts = driver::BenchOptions::parse(
        argc, argv, def.wantsPositionals ? &positionals : nullptr);
    driver::BenchHarness bench(opts, def.name);
    if (def.runCustom)
        return def.runCustom(bench, positionals);
    if (def.runNoSweep) {
        bench.declareNoSweep();
        def.runNoSweep(bench);
        return 0;
    }
    driver::ResultSink all = bench.run(def.grid(opts));
    def.print(bench, all);
    return 0;
}

} // namespace momsim::svc
