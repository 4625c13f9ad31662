#include "trace/program.hh"

#include <new>
#include <type_traits>
#include <utility>

#include "trace/inst_arena.hh"

namespace momsim::trace
{

void
InstBuffer::grow()
{
    static_assert(std::is_trivially_copyable_v<isa::TraceInst>,
                  "InstBuffer grows with realloc");
    const size_t capacity = _capacity ? 2 * _capacity : 1024;
    void *grown = std::realloc(_data, capacity * sizeof(isa::TraceInst));
    if (!grown)
        throw std::bad_alloc();
    _data = static_cast<isa::TraceInst *>(grown);
    _capacity = capacity;
}

MixSummary
Program::computeMix() const
{
    MixSummary m;
    for (const auto &inst : insts()) {
        uint32_t eq = inst.eqInsts();
        m.records += 1;
        m.eqInsts += eq;
        m.memAccesses += inst.memAccesses();
        switch (isa::mixGroup(inst.opClass())) {
          case isa::MixGroup::Int:
            m.intOps += eq;
            break;
          case isa::MixGroup::Fp:
            m.fpOps += eq;
            break;
          case isa::MixGroup::SimdArith:
            m.simdOps += eq;
            break;
          case isa::MixGroup::Mem:
            m.memOps += eq;
            break;
        }
        if (inst.isCondBranch()) {
            m.branches += 1;
            if (inst.taken())
                m.takenBranches += 1;
        }
    }
    return m;
}

void
Program::seal(InstArena &arena)
{
    if (_sealed)
        return;
    mix();      // warm the memoized mix while the data is hot
    _spanSize = _insts.size();
    _span = arena.adopt(std::move(_insts));
    _sealed = true;
}

Program
Program::rebased(uint32_t delta, const std::string &newName) const
{
    Program p(newName, _simd);
    for (isa::TraceInst inst : insts()) {
        inst.pc += delta;
        if (inst.isMemory() || inst.isControl())
            inst.addr += delta;
        p._insts.push_back(inst);
    }
    p.mix();    // warm the memoized mix before the copy is shared
    return p;
}

} // namespace momsim::trace
