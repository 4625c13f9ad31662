/**
 * @file
 * The owner of sealed trace storage.
 *
 * A workload build grows one InstBuffer per program. Sealing a
 * finished program hands that buffer to the workload's InstArena
 * instead of copying it: moving an InstBuffer keeps its heap block
 * where it is, so the spans sealed Programs read through stay valid
 * for the arena's lifetime and sealing copies no record.
 * (A build buffer is already dense; packing the programs back to back
 * bought nothing but a second copy of every trace.)
 */

#ifndef MOMSIM_TRACE_INST_ARENA_HH
#define MOMSIM_TRACE_INST_ARENA_HH

#include <vector>

#include "trace/program.hh"

namespace momsim::trace
{

class InstArena
{
  public:
    /** Own @p records; returns the stable start of their span. */
    const isa::TraceInst *
    adopt(InstBuffer records)
    {
        _size += records.size();
        _blocks.push_back(std::move(records));
        return _blocks.back().data();
    }

    /** Trace records owned, over every adopted program. */
    size_t size() const { return _size; }

  private:
    std::vector<InstBuffer> _blocks;
    size_t _size = 0;
};

} // namespace momsim::trace

#endif // MOMSIM_TRACE_INST_ARENA_HH
