#include "workloads/media_workload.hh"

#include "common/hash.hh"
#include "common/logging.hh"
#include "workloads/gsm.hh"
#include "workloads/jpeg.hh"
#include "workloads/mesa.hh"
#include "workloads/mpeg2.hh"

namespace momsim::workloads
{

namespace
{

/**
 * Address-space slot for each program instance (128 MB main memory).
 * The per-slot stagger keeps different programs' hot lines from landing
 * on identical cache indices (as an OS's varied text/heap placement
 * does); perfectly aligned slots would make all eight threads thrash a
 * single I-cache set.
 */
uint32_t
slotBase(int slot)
{
    return (4u << 20) + static_cast<uint32_t>(slot) * (15u << 20) +
           static_cast<uint32_t>(slot) * 0x21840u;
}

struct ScaledConfigs
{
    VideoConfig video;
    JpegConfig jpeg;
    GsmConfig gsm;
    MesaConfig mesa;
};

ScaledConfigs
configsFor(WorkloadScale scale)
{
    ScaledConfigs c;
    if (scale == WorkloadScale::Tiny) {
        c.video = { 48, 48, 2, 2, 14, 11 };
        c.jpeg = { 48, 48, 14, 77 };
        c.gsm = { 3, 99 };
        c.mesa = { 64, 48, 8, 6, 1, 3 };
    } else {
        c.video = { 176, 144, 3, 4, 16, 11 };
        c.jpeg = { 160, 128, 14, 77 };
        c.gsm = { 55, 99 };
        c.mesa = { 160, 120, 14, 10, 3, 3 };
    }
    return c;
}

/** Hash the complete dynamic instruction stream of one program. */
uint64_t
mixProgram(uint64_t h, const trace::Program &prog)
{
    h = hashMixString(h, prog.name());
    h = hashMix64(h, prog.size());
    for (const isa::TraceInst &ti : prog.insts()) {
        h = hashMix64(h, (static_cast<uint64_t>(ti.pc) << 32) | ti.addr);
        h = hashMix64(h, static_cast<uint64_t>(ti.op) |
                             (static_cast<uint64_t>(ti.flags) << 16) |
                             (static_cast<uint64_t>(ti.dst) << 24) |
                             (static_cast<uint64_t>(ti.src0) << 32) |
                             (static_cast<uint64_t>(ti.src1) << 40) |
                             (static_cast<uint64_t>(ti.src2) << 48) |
                             (static_cast<uint64_t>(ti.accessSize) << 56));
        h = hashMix64(h, static_cast<uint64_t>(ti.streamLen) |
                             (static_cast<uint64_t>(
                                  static_cast<uint16_t>(ti.stride))
                              << 8));
    }
    return h;
}

bool
isEncoder(ProgramKind kind)
{
    return kind == ProgramKind::Mpeg2Enc || kind == ProgramKind::GsmEnc ||
           kind == ProgramKind::JpegEnc;
}

/** The encoder whose bitstream decoder @p kind consumes. */
ProgramKind
encoderOf(ProgramKind kind)
{
    switch (kind) {
      case ProgramKind::Mpeg2Dec:
        return ProgramKind::Mpeg2Enc;
      case ProgramKind::GsmDec:
        return ProgramKind::GsmEnc;
      default:
        return ProgramKind::JpegEnc;
    }
}

/**
 * Scheduling rank: the MPEG-2 chain (its encoder is by far the longest
 * synthesis) and the in-order fingerprint fold start before anything
 * else that is ready.
 */
int
rankOf(ProgramKind kind)
{
    return kind == ProgramKind::Mpeg2Enc || kind == ProgramKind::Mpeg2Dec
               ? 0
               : 1;
}
constexpr int kFoldRank = 0;

/** Codec streams of one ISA, from encoder tasks to decoder tasks. */
struct Streams
{
    Mpeg2Bitstream video;
    GsmStream gsm;
    JpegStream jpeg;
};

/** What the tasks of one workload build share. */
struct Synthesis
{
    ScaledConfigs cfg;
    Streams streams[2];                 ///< [MMX, MOM]
    uint64_t fingerprint = kHashSeed;   ///< folded in program order
};

/** Synthesize one first-slot program (or, for an encoder, a stream). */
trace::Program
synthesize(isa::SimdIsa simd, ProgramKind kind, uint32_t base,
           const ScaledConfigs &cfg, Streams &st)
{
    switch (kind) {
      case ProgramKind::Mpeg2Enc:
        return buildMpeg2Encoder(simd, base, cfg.video, &st.video);
      case ProgramKind::GsmEnc:
        return buildGsmEncoder(simd, base, cfg.gsm, &st.gsm);
      case ProgramKind::JpegEnc:
        return buildJpegEncoder(simd, base, cfg.jpeg, &st.jpeg);
      case ProgramKind::Mpeg2Dec:
        return buildMpeg2Decoder(simd, base, st.video);
      case ProgramKind::GsmDec:
        return buildGsmDecoder(simd, base, st.gsm);
      case ProgramKind::JpegDec:
        return buildJpegDecoder(simd, base, st.jpeg);
      default:
        return buildMesa(simd, base, cfg.mesa);
    }
}

} // namespace

std::unique_ptr<MediaWorkload>
MediaWorkload::build(WorkloadScale scale)
{
    return build(WorkloadSpec::paper(scale));
}

std::unique_ptr<MediaWorkload>
MediaWorkload::build(const WorkloadSpec &spec)
{
    BuildGraph graph;
    std::unique_ptr<MediaWorkload> wl = schedule(spec, graph);
    BuildPool(1).run(graph);
    return wl;
}

std::unique_ptr<MediaWorkload>
MediaWorkload::schedule(const WorkloadSpec &spec, BuildGraph &graph)
{
    MOMSIM_ASSERT(!spec.slots.empty(), "workload spec has no slots");
    auto wl = std::make_unique<MediaWorkload>();
    auto syn = std::make_shared<Synthesis>();
    syn->cfg = configsFor(spec.scale);
    const int n = static_cast<int>(spec.slots.size());

    wl->_specName = spec.name;
    wl->_kinds = spec.slots;
    wl->_mmx.resize(static_cast<size_t>(n));
    wl->_mom.resize(static_cast<size_t>(n));

    // Instance names: the base benchmark name, with an ordinal suffix
    // from the second copy on (the paper's second MPEG-2 decoder is
    // "mpeg2dec2"). firstSlot[i] is the slot a duplicate rebases from.
    std::vector<int> firstSlot(static_cast<size_t>(n));
    int copies[kNumProgramKinds] = {};
    for (int i = 0; i < n; ++i) {
        ProgramKind kind = spec.slots[static_cast<size_t>(i)];
        int &count = copies[static_cast<int>(kind)];
        count += 1;
        std::string name = toString(kind);
        if (count > 1)
            name += strfmt("%d", count);
        wl->_names.push_back(std::move(name));
        firstSlot[static_cast<size_t>(i)] = i;
        for (int j = 0; j < i; ++j) {
            if (spec.slots[static_cast<size_t>(j)] == kind) {
                firstSlot[static_cast<size_t>(i)] = j;
                break;
            }
        }
    }

    // made[k]: the task that finishes program k, MMX slots first.
    std::vector<BuildGraph::TaskId> made;
    MediaWorkload *out = wl.get();
    for (isa::SimdIsa simd : { isa::SimdIsa::Mmx, isa::SimdIsa::Mom }) {
        const int isaIx = simd == isa::SimdIsa::Mom ? 1 : 0;
        std::vector<trace::Program> &arr = isaIx ? wl->_mom : wl->_mmx;
        std::vector<BuildGraph::TaskId> slotTask(static_cast<size_t>(n));
        // Task producing each codec's stream, indexed by encoder kind.
        BuildGraph::TaskId streamTask[kNumProgramKinds] = {};
        bool haveStream[kNumProgramKinds] = {};

        auto addProgram = [&](int slot, ProgramKind kind, uint32_t base) {
            trace::Program *dst =
                slot < n ? &arr[static_cast<size_t>(slot)] : nullptr;
            return graph.add(
                [syn, simd, isaIx, kind, base, dst] {
                    trace::Program prog = synthesize(
                        simd, kind, base, syn->cfg, syn->streams[isaIx]);
                    if (dst)
                        *dst = std::move(prog);
                },
                rankOf(kind));
        };

        // Encoders at their first slots, producing the codec streams
        // the decoder tasks consume.
        for (int i = 0; i < n; ++i) {
            ProgramKind kind = spec.slots[static_cast<size_t>(i)];
            if (firstSlot[static_cast<size_t>(i)] != i || !isEncoder(kind))
                continue;
            slotTask[static_cast<size_t>(i)] =
                streamTask[static_cast<int>(kind)] =
                    addProgram(i, kind, slotBase(i));
            haveStream[static_cast<int>(kind)] = true;
        }

        // Decoders and mesa at their first slots. A stream still
        // missing comes from a throwaway encoder build in the next
        // scratch slot past the rotation's end, numbered in slot order
        // so the decoder traces depend only on the spec.
        int scratchSlot = n;
        for (int i = 0; i < n; ++i) {
            ProgramKind kind = spec.slots[static_cast<size_t>(i)];
            if (firstSlot[static_cast<size_t>(i)] != i || isEncoder(kind))
                continue;
            BuildGraph::TaskId task = addProgram(i, kind, slotBase(i));
            if (kind != ProgramKind::Mesa) {
                const int enc = static_cast<int>(encoderOf(kind));
                if (!haveStream[enc]) {
                    streamTask[enc] =
                        addProgram(scratchSlot, encoderOf(kind),
                                   slotBase(scratchSlot));
                    ++scratchSlot;
                    haveStream[enc] = true;
                }
                graph.after(streamTask[enc], task);
            }
            slotTask[static_cast<size_t>(i)] = task;
        }

        // Duplicate slots share the first instance's synthesis, rebased
        // into their own address space.
        for (int i = 0; i < n; ++i) {
            const int first = firstSlot[static_cast<size_t>(i)];
            if (first == i)
                continue;
            const trace::Program *src = &arr[static_cast<size_t>(first)];
            trace::Program *dst = &arr[static_cast<size_t>(i)];
            const uint32_t delta = slotBase(i) - slotBase(first);
            const std::string *name = &wl->_names[static_cast<size_t>(i)];
            BuildGraph::TaskId task = graph.add(
                [src, dst, delta, name] { *dst = src->rebased(delta, *name); },
                rankOf(spec.slots[static_cast<size_t>(i)]));
            graph.after(slotTask[static_cast<size_t>(first)], task);
            slotTask[static_cast<size_t>(i)] = task;
        }
        made.insert(made.end(), slotTask.begin(), slotTask.end());
    }

    // Content fingerprint over both ISAs' traces (see fingerprint()),
    // one fold per program in the fixed order, each as soon as its
    // program and the previous fold are done.
    BuildGraph::TaskId prevFold = 0;
    for (size_t k = 0; k < made.size(); ++k) {
        const trace::Program *prog = k < static_cast<size_t>(n)
                                         ? &wl->_mmx[k]
                                         : &wl->_mom[k - static_cast<size_t>(n)];
        BuildGraph::TaskId fold = graph.add(
            [syn, prog] { syn->fingerprint = mixProgram(syn->fingerprint,
                                                        *prog); },
            kFoldRank);
        graph.after(made[k], fold);
        if (k != 0)
            graph.after(prevFold, fold);
        prevFold = fold;
    }

    // Once every program is folded (and so every rebase has read its
    // source), cache the equivalent-instruction counts — keeping
    // rotation(), called once per experiment, free of O(trace) walks —
    // and seal each trace in place.
    BuildGraph::TaskId finish = graph.add(
        [syn, out] {
            for (size_t i = 0; i < out->_names.size(); ++i) {
                out->_mmxEq.push_back(out->_mmx[i].mix().eqInsts);
                out->_momEq.push_back(out->_mom[i].mix().eqInsts);
            }
            for (auto *arr : { &out->_mmx, &out->_mom })
                for (trace::Program &prog : *arr)
                    prog.seal(out->_arena);
            out->_fingerprint = syn->fingerprint;
        },
        kFoldRank);
    graph.after(prevFold, finish);
    return wl;
}

std::vector<core::WorkloadProgram>
MediaWorkload::rotation(isa::SimdIsa simd) const
{
    std::vector<core::WorkloadProgram> rot;
    rot.reserve(_names.size());
    for (int i = 0; i < numPrograms(); ++i) {
        core::WorkloadProgram wp;
        wp.prog = &program(simd, i);
        wp.mmxEq = _mmxEq[static_cast<size_t>(i)];
        rot.push_back(wp);
    }
    return rot;
}

} // namespace momsim::workloads
