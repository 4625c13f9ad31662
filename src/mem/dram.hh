/**
 * @file
 * Direct Rambus DRAM channel model.
 *
 * The paper's main memory: "a 128MB Direct Rambus main memory system which
 * contains a DRDRAM controller driving 8 Rambus chips and leveraging up to
 * 3.2 GB/s with a 128-bit wide, bi-directional 200Mhz main bus (feeding a
 * 800MHz processor)". At 800 MHz that is 4 bytes of channel bandwidth per
 * CPU cycle. We model: a fixed device access latency, per-device busy
 * windows (8 devices interleaved by 4 KB regions) and channel occupancy
 * proportional to the transfer size.
 */

#ifndef MOMSIM_MEM_DRAM_HH
#define MOMSIM_MEM_DRAM_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/stats.hh"

namespace momsim::mem
{

struct DramConfig
{
    uint32_t accessLatency = 56;    ///< CPU cycles from request to first data
    uint32_t bytesPerCycle = 4;     ///< 3.2 GB/s at 800 MHz
    uint32_t numDevices = 8;
    uint32_t deviceShift = 12;      ///< 4 KB device interleave
    uint32_t deviceBusy = 16;       ///< device recovery per access
};

/** Timestamp-resource model of the Rambus channel. */
class RambusChannel
{
  public:
    explicit RambusChannel(const DramConfig &cfg = {})
        : _cfg(cfg),
          _devMask((cfg.numDevices & (cfg.numDevices - 1)) == 0
                       ? cfg.numDevices - 1
                       : 0),
          _stats("dram")
    {
        _deviceFree.fill(0);
        // Cached so per-access accounting never does a string lookup
        // (StatGroup references are stable).
        _ctrReads = _stats.id("reads");
        _ctrWrites = _stats.id("writes");
        _ctrBytes = _stats.id("bytes");
        _ctrQueueCycles = _stats.id("queueCycles");
    }

    /**
     * Request @p bytes at @p addr starting no earlier than @p cycle.
     * @return the cycle at which the full transfer completes.
     */
    uint64_t
    access(uint64_t cycle, uint64_t addr, uint32_t bytes, bool isWrite)
    {
        uint64_t sliced = addr >> _cfg.deviceShift;
        uint32_t dev = static_cast<uint32_t>(
            _devMask ? (sliced & _devMask) : (sliced % _cfg.numDevices));
        uint64_t start = std::max({ cycle, _channelFree, _deviceFree[dev] });
        uint64_t occupancy =
            (bytes + _cfg.bytesPerCycle - 1) / _cfg.bytesPerCycle;
        uint64_t done = start + _cfg.accessLatency + occupancy;
        _channelFree = start + occupancy;
        _deviceFree[dev] = start + _cfg.deviceBusy;

        _stats.at(isWrite ? _ctrWrites : _ctrReads) += 1;
        _stats.at(_ctrBytes) += bytes;
        _stats.at(_ctrQueueCycles) += start - cycle;
        return done;
    }

    /**
     * Earliest cycle > @p cycle at which channel or device occupancy
     * clears; ~0ull when the channel is idle. Lets the core's idle
     * fast-forward stop at DRAM state changes.
     */
    uint64_t
    nextEventCycle(uint64_t cycle) const
    {
        uint64_t next = ~0ull;
        if (_channelFree > cycle)
            next = _channelFree;
        for (uint32_t d = 0; d < _cfg.numDevices && d < _deviceFree.size();
             ++d) {
            if (_deviceFree[d] > cycle)
                next = std::min(next, _deviceFree[d]);
        }
        return next;
    }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    DramConfig _cfg;
    uint64_t _devMask;          ///< numDevices-1 if pow2, else 0
    uint64_t _channelFree = 0;
    std::array<uint64_t, 16> _deviceFree{};
    StatGroup _stats;
    StatId _ctrReads = 0;
    StatId _ctrWrites = 0;
    StatId _ctrBytes = 0;
    StatId _ctrQueueCycles = 0;
};

} // namespace momsim::mem

#endif // MOMSIM_MEM_DRAM_HH
