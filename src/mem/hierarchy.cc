#include "mem/hierarchy.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace momsim::mem
{

const char *
toString(MemModel m)
{
    switch (m) {
      case MemModel::Perfect:      return "perfect";
      case MemModel::Conventional: return "conventional";
      case MemModel::Decoupled:    return "decoupled";
    }
    return "?";
}

bool
fromString(const char *s, MemModel &out)
{
    if (std::strcmp(s, "perfect") == 0) {
        out = MemModel::Perfect;
        return true;
    }
    if (std::strcmp(s, "conventional") == 0) {
        out = MemModel::Conventional;
        return true;
    }
    if (std::strcmp(s, "decoupled") == 0) {
        out = MemModel::Decoupled;
        return true;
    }
    return false;
}

MemConfig::MemConfig()
{
    // L1: 32 KB, direct mapped, write-through, 32-byte lines, 8 banks,
    // 8 MSHRs, 8-deep coalescing write buffer, 1-cycle latency.
    l1.name = "l1";
    l1.sizeBytes = 32 * 1024;
    l1.lineBytes = 32;
    l1.ways = 1;
    l1.banks = 8;
    l1.bankShift = 3;
    l1.hitLatency = 1;
    l1.numMshrs = 8;
    l1.writeBufferEntries = 8;
    l1.writeBack = false;
    l1.portsPerCycle = 4;

    // I-cache: 64 KB, 2-way, 32-byte lines, 4 banks, 1-cycle latency.
    icache.name = "icache";
    icache.sizeBytes = 64 * 1024;
    icache.lineBytes = 32;
    icache.ways = 2;
    icache.banks = 4;
    icache.bankShift = 5;
    icache.hitLatency = 1;
    icache.numMshrs = 4;
    icache.writeBufferEntries = 1;
    icache.writeBack = false;
    icache.portsPerCycle = 2;       // two fetch groups per cycle

    // L2: 1 MB, 2-way, write-back, 128-byte lines, 12-cycle latency,
    // 8 MSHRs, two banks reachable through a crossbar.
    l2.name = "l2";
    l2.sizeBytes = 1024 * 1024;
    l2.lineBytes = 128;
    l2.ways = 2;
    l2.banks = 2;
    l2.bankShift = 7;
    l2.hitLatency = 12;
    l2.numMshrs = 8;
    l2.writeBufferEntries = 8;
    l2.writeBack = true;
    l2.portsPerCycle = 2;
    l2.fillBytesPerCycle = 16;
}

void
MemConfig::applyDecoupledShape()
{
    // 21264-style: single-banked, double-pumped, two scalar ports.
    l1.banks = 1;
    l1.bankPumps = 2;
    l1.portsPerCycle = 2;
}

// ---------------------------------------------------------------------
// BaseHierarchy
// ---------------------------------------------------------------------

BaseHierarchy::BaseHierarchy(const MemConfig &cfg)
    : _cfg(cfg), _l1(cfg.l1), _ic(cfg.icache), _l2(cfg.l2), _dram(cfg.dram)
{
    _ctrL1WbFull = _l1.stats().id("wbFull");
    _ctrL1WbForwards = _l1.stats().id("wbForwards");
    _ctrL1LatencySum = _l1.stats().id("latencySum");
    _ctrL2LatencySum = _l2.stats().id("latencySum");
    _ctrIcLatencySum = _ic.stats().id("latencySum");
    _ctrL2VecPortConflicts = _l2.stats().id("vectorPortConflicts");
    _ctrL2VecInvalidations = _l2.stats().id("vecInvalidations");
}

uint64_t
BaseHierarchy::nextEventCycle(uint64_t cycle) const
{
    uint64_t next = _l1.nextEventCycle(cycle);
    next = std::min(next, _ic.nextEventCycle(cycle));
    next = std::min(next, _l2.nextEventCycle(cycle));
    next = std::min(next, _dram.nextEventCycle(cycle));
    return next;
}

StatGroup *
BaseHierarchy::statsOf(const char *which)
{
    if (std::strcmp(which, "l1") == 0)
        return &_l1.stats();
    if (std::strcmp(which, "icache") == 0)
        return &_ic.stats();
    if (std::strcmp(which, "l2") == 0)
        return &_l2.stats();
    if (std::strcmp(which, "dram") == 0)
        return &_dram.stats();
    return nullptr;
}

uint64_t
BaseHierarchy::l2Read(uint64_t cycle, uint64_t addr, uint32_t bytes)
{
    CacheResult r = _l2.accessBlocking(cycle, addr, false, bytes);
    if (r.dirtyEviction) {
        _dram.access(cycle + _cfg.l2.hitLatency, r.victimAddr,
                     _cfg.l2.lineBytes, true);
    }
    if (r.needsFill) {
        uint64_t done = _dram.access(cycle + _cfg.l2.hitLatency, r.missAddr,
                                     _cfg.l2.lineBytes, false);
        _l2.fillDone(r.missAddr, done);
        _l2.stats().at(_ctrL2LatencySum) += done - cycle;
        return done;
    }
    return r.readyCycle;
}

uint64_t
BaseHierarchy::l2Write(uint64_t cycle, uint64_t addr, uint32_t bytes)
{
    CacheResult r = _l2.accessBlocking(cycle, addr, true, bytes);
    if (r.dirtyEviction) {
        _dram.access(cycle + _cfg.l2.hitLatency, r.victimAddr,
                     _cfg.l2.lineBytes, true);
    }
    if (r.needsFill) {
        // Write-allocate: fetch the line, then the write completes.
        uint64_t done = _dram.access(cycle + _cfg.l2.hitLatency, r.missAddr,
                                     _cfg.l2.lineBytes, false);
        _l2.fillDone(r.missAddr, done);
        _l2.stats().at(_ctrL2LatencySum) += done - cycle;
        return done;
    }
    return r.readyCycle;
}

bool
BaseHierarchy::storeThroughWb(uint64_t cycle, uint64_t addr, MemReply &rep)
{
    if (!_l1.wbProbe(cycle, addr)) {
        _l1.stats().at(_ctrL1WbFull) += 1;
        return false;
    }
    CacheResult r = _l1.access(cycle, addr, true);
    if (!r.accepted)
        return false;
    // Drain the (coalesced) line to L2 in the background.
    uint64_t drainDone = l2Write(r.readyCycle, addr, _cfg.l1.lineBytes);
    _l1.wbInsert(cycle, addr, drainDone);
    rep.accepted = true;
    rep.l1Hit = r.hit;
    rep.readyCycle = r.readyCycle;  // stores complete into the buffer
    return true;
}

FetchReply
BaseHierarchy::ifetch(uint64_t cycle, uint64_t pc)
{
    CacheResult r = _ic.access(cycle, pc, false);
    if (!r.accepted)
        return {};
    FetchReply rep;
    rep.accepted = true;
    rep.hit = r.hit;
    if (r.needsFill) {
        uint64_t done = l2Read(cycle + _cfg.icache.hitLatency, r.missAddr,
                               _cfg.icache.lineBytes);
        _ic.fillDone(r.missAddr, done);
        _ic.stats().at(_ctrIcLatencySum) += done - cycle;
        rep.readyCycle = done;
    } else {
        rep.readyCycle = r.readyCycle;
    }
    return rep;
}

// ---------------------------------------------------------------------
// ConventionalHierarchy
// ---------------------------------------------------------------------

MemReply
ConventionalHierarchy::access(uint64_t cycle, const MemAccess &req)
{
    MemReply rep;
    if (req.isWrite) {
        storeThroughWb(cycle, req.addr, rep);
        return rep;
    }

    // Load forwarding from a resident write-buffer entry ("selective
    // flush": the matching entry services the load directly).
    if (_l1.wbHit(cycle, req.addr)) {
        _l1.stats().at(_ctrL1WbForwards) += 1;
        rep.accepted = true;
        rep.l1Hit = true;
        rep.readyCycle = cycle + 1;
        return rep;
    }

    CacheResult r = _l1.access(cycle, req.addr, false);
    if (!r.accepted)
        return rep;
    rep.accepted = true;
    rep.l1Hit = r.hit;
    if (r.needsFill) {
        uint64_t done = l2Read(cycle + _cfg.l1.hitLatency, r.missAddr,
                               _cfg.l1.lineBytes);
        _l1.fillDone(r.missAddr, done);
        _l1.stats().at(_ctrL1LatencySum) += done - cycle;
        rep.readyCycle = done;
    } else {
        rep.readyCycle = r.readyCycle;
    }
    return rep;
}

// ---------------------------------------------------------------------
// DecoupledHierarchy
// ---------------------------------------------------------------------

DecoupledHierarchy::DecoupledHierarchy(const MemConfig &cfg)
    : BaseHierarchy([cfg]() {
          MemConfig shaped = cfg;
          shaped.applyDecoupledShape();
          return shaped;
      }())
{
}

bool
DecoupledHierarchy::takeVectorPort(uint64_t cycle)
{
    if (_vpCycle != cycle) {
        _vpCycle = cycle;
        _vpUsed = 0;
    }
    if (_vpUsed >= _cfg.vectorPorts)
        return false;
    ++_vpUsed;
    return true;
}

MemReply
DecoupledHierarchy::scalarAccess(uint64_t cycle, const MemAccess &req)
{
    MemReply rep;
    if (req.isWrite) {
        storeThroughWb(cycle, req.addr, rep);
        return rep;
    }
    if (_l1.wbHit(cycle, req.addr)) {
        _l1.stats().at(_ctrL1WbForwards) += 1;
        rep.accepted = true;
        rep.l1Hit = true;
        rep.readyCycle = cycle + 1;
        return rep;
    }
    CacheResult r = _l1.access(cycle, req.addr, false);
    if (!r.accepted)
        return rep;
    rep.accepted = true;
    rep.l1Hit = r.hit;
    if (r.needsFill) {
        uint64_t done = l2Read(cycle + _cfg.l1.hitLatency, r.missAddr,
                               _cfg.l1.lineBytes);
        _l1.fillDone(r.missAddr, done);
        _l1.stats().at(_ctrL1LatencySum) += done - cycle;
        rep.readyCycle = done;
    } else {
        rep.readyCycle = r.readyCycle;
    }
    return rep;
}

MemReply
DecoupledHierarchy::vectorAccess(uint64_t cycle, const MemAccess &req)
{
    MemReply rep;
    if (!takeVectorPort(cycle)) {
        _l2.stats().at(_ctrL2VecPortConflicts) += 1;
        return rep;
    }

    uint64_t penalty = 0;

    // Exclusive-bit coherence: a vector touch of an L1-resident line
    // pulls it out of the L1 before proceeding.
    if (_l1.probe(req.addr)) {
        _l1.invalidate(req.addr);
        _l2.stats().at(_ctrL2VecInvalidations) += 1;
        penalty = _cfg.invalidatePenalty;
    }

    uint64_t done = req.isWrite
        ? l2Write(cycle + penalty, req.addr, req.size)
        : l2Read(cycle + penalty, req.addr, req.size);

    rep.accepted = true;
    rep.l1Hit = false;          // never touches the L1
    rep.readyCycle = done;
    return rep;
}

MemReply
DecoupledHierarchy::access(uint64_t cycle, const MemAccess &req)
{
    return req.isVector ? vectorAccess(cycle, req)
                        : scalarAccess(cycle, req);
}

// ---------------------------------------------------------------------

std::unique_ptr<MemorySystem>
makeMemorySystem(MemModel model, const MemConfig &cfg)
{
    switch (model) {
      case MemModel::Perfect:
        return std::make_unique<PerfectMemory>();
      case MemModel::Conventional:
        return std::make_unique<ConventionalHierarchy>(cfg);
      case MemModel::Decoupled:
        return std::make_unique<DecoupledHierarchy>(cfg);
    }
    panic("unknown memory model");
}

} // namespace momsim::mem
