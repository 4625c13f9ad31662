#include "trace/builder.hh"

#include "isa/regs.hh"

namespace momsim::trace
{

namespace
{

/// Code segment size reserved per program instance.
constexpr uint32_t kCodeSegmentSize = 1u << 20;

/// Integer registers available to the allocator: 0..27 (28 and 29 are
/// reserved as emitter scratch, 30 is the stream-length register, 31 is
/// the hardwired zero).
constexpr int kAllocatableInt = 28;
constexpr int kAllocatableFp = 31;
constexpr int kAllocatableMmx = 32;
constexpr int kAllocatableMom = 16;

} // namespace

TraceBuilder::TraceBuilder(std::string name, isa::SimdIsa simd,
                           uint32_t base, uint32_t dataCapacity)
    : _program(std::move(name), simd),
      _data(dataCapacity, 0),
      _base(base),
      _codeBase(base),
      _codeBrk(base + kDefaultRoutineSpan),   // region for "main"
      _dataBase(base + kCodeSegmentSize),
      _dataBrk(base + kCodeSegmentSize),
      _dataLimit(base + kCodeSegmentSize + dataCapacity),
      _pc(base),
      _regionBase(base),
      _regionLimit(base + kDefaultRoutineSpan)
{
}

uint32_t
TraceBuilder::alloc(uint32_t bytes, uint32_t align)
{
    MOMSIM_ASSERT(align != 0 && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
    uint32_t addr = (_dataBrk + align - 1) & ~(align - 1);
    MOMSIM_ASSERT(addr + bytes <= _dataLimit,
                  "simulated data memory exhausted");
    _dataBrk = addr + bytes;
    return addr;
}

uint8_t
TraceBuilder::peek8(uint32_t addr) const
{
    MOMSIM_ASSERT(addr >= _dataBase && addr < _dataLimit,
                  "peek outside simulated memory");
    return _data[addr - _dataBase];
}

uint16_t
TraceBuilder::peek16(uint32_t addr) const
{
    return static_cast<uint16_t>(peek8(addr) |
                                 (static_cast<uint16_t>(peek8(addr + 1)) << 8));
}

uint32_t
TraceBuilder::peek32(uint32_t addr) const
{
    return static_cast<uint32_t>(peek16(addr)) |
           (static_cast<uint32_t>(peek16(addr + 2)) << 16);
}

uint64_t
TraceBuilder::peek64(uint32_t addr) const
{
    return static_cast<uint64_t>(peek32(addr)) |
           (static_cast<uint64_t>(peek32(addr + 4)) << 32);
}

void
TraceBuilder::poke8(uint32_t addr, uint8_t v)
{
    MOMSIM_ASSERT(addr >= _dataBase && addr < _dataLimit,
                  "poke outside simulated memory");
    _data[addr - _dataBase] = v;
}

void
TraceBuilder::poke16(uint32_t addr, uint16_t v)
{
    poke8(addr, static_cast<uint8_t>(v));
    poke8(addr + 1, static_cast<uint8_t>(v >> 8));
}

void
TraceBuilder::poke32(uint32_t addr, uint32_t v)
{
    poke16(addr, static_cast<uint16_t>(v));
    poke16(addr + 2, static_cast<uint16_t>(v >> 16));
}

void
TraceBuilder::poke64(uint32_t addr, uint64_t v)
{
    poke32(addr, static_cast<uint32_t>(v));
    poke32(addr + 4, static_cast<uint32_t>(v >> 32));
}

void
TraceBuilder::pokeBytes(uint32_t addr, const uint8_t *data, uint32_t len)
{
    for (uint32_t i = 0; i < len; ++i)
        poke8(addr + i, data[i]);
}

void
TraceBuilder::peekBytes(uint32_t addr, uint8_t *out, uint32_t len) const
{
    for (uint32_t i = 0; i < len; ++i)
        out[i] = peek8(addr + i);
}

void
TraceBuilder::callRoutine(const std::string &name, uint32_t span)
{
    auto it = _regions.find(name);
    if (it == _regions.end()) {
        MOMSIM_ASSERT(_codeBrk + span <= _codeBase + kCodeSegmentSize,
                      "code segment exhausted");
        it = _regions.emplace(name,
                              std::make_pair(_codeBrk, _codeBrk + span)).first;
        _codeBrk += span;
    }

    // The call itself.
    isa::TraceInst &jsr = emit(isa::Op::JSR);
    jsr.addr = it->second.first;
    jsr.flags |= isa::kFlagTaken;

    _callStack.push_back({ _pc, _regionBase, _regionLimit });
    _regionBase = it->second.first;
    _regionLimit = it->second.second;
    _pc = _regionBase;
}

void
TraceBuilder::returnFromRoutine()
{
    MOMSIM_ASSERT(!_callStack.empty(), "return without call");
    Frame frame = _callStack.back();
    _callStack.pop_back();

    isa::TraceInst &ret = emit(isa::Op::RET);
    ret.addr = frame.resumePc;
    ret.flags |= isa::kFlagTaken;

    _pc = frame.resumePc;
    _regionBase = frame.regionBase;
    _regionLimit = frame.regionLimit;
}

void
TraceBuilder::loopBack(uint32_t head, isa::RegRef condReg, bool again)
{
    isa::TraceInst &br = emit(isa::Op::BNE);
    br.addr = head;
    br.src0 = condReg;
    br.flags |= isa::kFlagCond;
    if (again) {
        br.flags |= isa::kFlagTaken;
        _pc = head;
    }
}

isa::RegRef
TraceBuilder::allocInt()
{
    int idx = _nextInt;
    _nextInt = (_nextInt + 1) % kAllocatableInt;
    return isa::intReg(idx);
}

isa::RegRef
TraceBuilder::allocFp()
{
    int idx = _nextFp;
    _nextFp = (_nextFp + 1) % kAllocatableFp;
    return isa::fpReg(idx);
}

isa::RegRef
TraceBuilder::allocMmx()
{
    int idx = _nextMmx;
    _nextMmx = (_nextMmx + 1) % kAllocatableMmx;
    return isa::mmxReg(idx);
}

isa::RegRef
TraceBuilder::allocMom()
{
    int idx = _nextMom;
    _nextMom = (_nextMom + 1) % kAllocatableMom;
    return isa::momReg(idx);
}

uint32_t
TraceBuilder::advancePc()
{
    uint32_t pc = _pc;
    _pc += 4;
    // Wrap inside the routine's region rather than spill into a
    // neighbouring routine; long straight-line bodies alias onto
    // themselves, which is the milder distortion.
    if (_pc >= _regionLimit)
        _pc = _regionBase;
    return pc;
}

isa::TraceInst &
TraceBuilder::emit(isa::Op op)
{
    isa::TraceInst inst;
    inst.op = static_cast<uint16_t>(op);
    inst.pc = advancePc();
    return _program.append(inst);
}

Program
TraceBuilder::take()
{
    MOMSIM_ASSERT(_callStack.empty(),
                  "program finished inside an open routine");
    // Warm the memoized mix so a finished program can be shared across
    // threads without its first mix() call racing.
    _program.mix();
    return std::move(_program);
}

} // namespace momsim::trace
