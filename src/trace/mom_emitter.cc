#include "trace/mom_emitter.hh"

#include "trace/packed.hh"

namespace momsim::trace
{

using isa::Op;
using isa::TraceInst;

void
MomEmitter::setLen(IVal n)
{
    MOMSIM_ASSERT(n.v >= 1 && n.v <= kMaxStreamLen,
                  "stream length must be 1..16");
    TraceInst &inst = _tb.emit(Op::MSETLEN);
    inst.dst = isa::slReg();
    inst.src0 = n.reg;
    _len = n.v;
    _slSrc = isa::slReg();
}

SVal
MomEmitter::newStream(int len)
{
    SVal s;
    s.len = len;
    s.reg = _tb.allocMom();
    return s;
}

TraceInst &
MomEmitter::emitStream(Op op, int len)
{
    MOMSIM_ASSERT(len >= 1 && len <= kMaxStreamLen,
                  "stream op outside configured length");
    TraceInst &inst = _tb.emit(op);
    inst.streamLen = static_cast<uint8_t>(len);
    return inst;
}

SVal
MomEmitter::loadQ(IVal base, int32_t disp, int32_t strideBytes)
{
    MOMSIM_ASSERT(_len > 0, "stream length not set");
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(strideBytes == 8 ? Op::MLDQ : Op::MLDQS,
                                 _len);
    SVal s = newStream(_len);
    inst.dst = s.reg;
    inst.src0 = base.reg;
    inst.src2 = _slSrc;
    inst.addr = addr;
    inst.stride = static_cast<int16_t>(strideBytes);
    inst.accessSize = 8;
    for (int i = 0; i < _len; ++i)
        s.e[i] = _tb.peek64(addr + static_cast<uint32_t>(strideBytes) * i);
    return s;
}

SVal
MomEmitter::loadUB2QH(IVal base, int32_t disp, int32_t strideBytes)
{
    MOMSIM_ASSERT(_len > 0, "stream length not set");
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(
        strideBytes == 4 ? Op::MLDUB2QH : Op::MLDUB2QHS, _len);
    SVal s = newStream(_len);
    inst.dst = s.reg;
    inst.src0 = base.reg;
    inst.src2 = _slSrc;
    inst.addr = addr;
    inst.stride = static_cast<int16_t>(strideBytes);
    inst.accessSize = 4;
    for (int i = 0; i < _len; ++i) {
        uint32_t four = _tb.peek32(addr + static_cast<uint32_t>(strideBytes) * i);
        s.e[i] = widenUB2QH(four);
    }
    return s;
}

SVal
MomEmitter::loadBC(IVal base, int32_t disp)
{
    MOMSIM_ASSERT(_len > 0, "stream length not set");
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(Op::MLDBC, 1);
    SVal s = newStream(_len);
    inst.dst = s.reg;
    inst.src0 = base.reg;
    inst.addr = addr;
    inst.accessSize = 8;
    uint64_t v = _tb.peek64(addr);
    for (int i = 0; i < _len; ++i)
        s.e[i] = v;
    return s;
}

void
MomEmitter::storeQ(IVal base, int32_t disp, int32_t strideBytes, SVal v)
{
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(strideBytes == 8 ? Op::MSTQ : Op::MSTQS,
                                 v.len);
    inst.src0 = v.reg;
    inst.src1 = base.reg;
    inst.src2 = _slSrc;
    inst.addr = addr;
    inst.stride = static_cast<int16_t>(strideBytes);
    inst.accessSize = 8;
    for (int i = 0; i < v.len; ++i)
        _tb.poke64(addr + static_cast<uint32_t>(strideBytes) * i, v.e[i]);
}

void
MomEmitter::storeNTQ(IVal base, int32_t disp, int32_t strideBytes, SVal v)
{
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(Op::MSTQNT, v.len);
    inst.src0 = v.reg;
    inst.src1 = base.reg;
    inst.src2 = _slSrc;
    inst.addr = addr;
    inst.stride = static_cast<int16_t>(strideBytes);
    inst.accessSize = 8;
    for (int i = 0; i < v.len; ++i)
        _tb.poke64(addr + static_cast<uint32_t>(strideBytes) * i, v.e[i]);
}

void
MomEmitter::storeQH2UB(IVal base, int32_t disp, int32_t strideBytes, SVal v)
{
    uint32_t addr = base.u() + static_cast<uint32_t>(disp);
    TraceInst &inst = emitStream(
        strideBytes == 4 ? Op::MSTQH2UB : Op::MSTQH2UBS, v.len);
    inst.src0 = v.reg;
    inst.src1 = base.reg;
    inst.src2 = _slSrc;
    inst.addr = addr;
    inst.stride = static_cast<int16_t>(strideBytes);
    inst.accessSize = 4;
    for (int i = 0; i < v.len; ++i) {
        _tb.poke32(addr + static_cast<uint32_t>(strideBytes) * i,
                   narrowQH2UB(v.e[i]));
    }
}

SVal
MomEmitter::binop(Op op, SVal a, SVal b, uint64_t (*fn)(uint64_t, uint64_t))
{
    MOMSIM_ASSERT(a.len == b.len, "stream length mismatch");
    TraceInst &inst = emitStream(op, a.len);
    SVal r = newStream(a.len);
    inst.dst = r.reg;
    inst.src0 = a.reg;
    inst.src1 = b.reg;
    inst.src2 = _slSrc;
    for (int i = 0; i < a.len; ++i)
        r.e[i] = fn(a.e[i], b.e[i]);
    return r;
}

SVal
MomEmitter::unop(Op op, SVal a, uint64_t (*fn)(uint64_t))
{
    TraceInst &inst = emitStream(op, a.len);
    SVal r = newStream(a.len);
    inst.dst = r.reg;
    inst.src0 = a.reg;
    inst.src2 = _slSrc;
    for (int i = 0; i < a.len; ++i)
        r.e[i] = fn(a.e[i]);
    return r;
}

SVal
MomEmitter::vsop(Op op, SVal a, MVal s, uint64_t (*fn)(uint64_t, uint64_t))
{
    TraceInst &inst = emitStream(op, a.len);
    SVal r = newStream(a.len);
    inst.dst = r.reg;
    inst.src0 = a.reg;
    inst.src1 = s.reg;
    inst.src2 = _slSrc;
    for (int i = 0; i < a.len; ++i)
        r.e[i] = fn(a.e[i], s.v);
    return r;
}

SVal MomEmitter::addQH(SVal a, SVal b) { return binop(Op::MADD_QH, a, b, paddw); }
SVal MomEmitter::addsQH(SVal a, SVal b) { return binop(Op::MADDS_QH, a, b, paddsw); }
SVal MomEmitter::subQH(SVal a, SVal b) { return binop(Op::MSUB_QH, a, b, psubw); }
SVal MomEmitter::subsQH(SVal a, SVal b) { return binop(Op::MSUBS_QH, a, b, psubsw); }
SVal MomEmitter::minQH(SVal a, SVal b) { return binop(Op::MMIN_QH, a, b, pminsw); }
SVal MomEmitter::maxQH(SVal a, SVal b) { return binop(Op::MMAX_QH, a, b, pmaxsw); }
SVal MomEmitter::avgQH(SVal a, SVal b) { return binop(Op::MAVG_QH, a, b, pavgw); }
SVal MomEmitter::absQH(SVal a) { return unop(Op::MABS_QH, a, pabsw); }
SVal MomEmitter::addusOB(SVal a, SVal b) { return binop(Op::MADDUS_OB, a, b, paddusb); }
SVal MomEmitter::subusOB(SVal a, SVal b) { return binop(Op::MSUBUS_OB, a, b, psubusb); }
SVal MomEmitter::avgOB(SVal a, SVal b) { return binop(Op::MAVG_OB, a, b, pavgb); }
SVal MomEmitter::absdOB(SVal a, SVal b) { return binop(Op::MABSD_OB, a, b, pabsdb); }
SVal MomEmitter::mullQH(SVal a, SVal b) { return binop(Op::MMULL_QH, a, b, pmullw); }
SVal MomEmitter::mulhQH(SVal a, SVal b) { return binop(Op::MMULH_QH, a, b, pmulhw); }
SVal MomEmitter::mulrQH(SVal a, SVal b) { return binop(Op::MMULR_QH, a, b, pmulrw); }
SVal MomEmitter::maddQH(SVal a, SVal b) { return binop(Op::MMADD_QH, a, b, pmaddwd); }
SVal MomEmitter::andS(SVal a, SVal b) { return binop(Op::MAND, a, b, pand); }
SVal MomEmitter::orS(SVal a, SVal b) { return binop(Op::MOR, a, b, por); }
SVal MomEmitter::xorS(SVal a, SVal b) { return binop(Op::MXOR, a, b, pxor); }
SVal MomEmitter::cmpgtQH(SVal a, SVal b) { return binop(Op::MCMPGT_QH, a, b, pcmpgtw); }
SVal MomEmitter::packusWB(SVal a, SVal b) { return binop(Op::MPACKUS_WB, a, b, packuswb); }
SVal MomEmitter::unpcklBW(SVal a, SVal b) { return binop(Op::MUNPCKL_BW, a, b, punpcklbw); }
SVal MomEmitter::unpckhBW(SVal a, SVal b) { return binop(Op::MUNPCKH_BW, a, b, punpckhbw); }
SVal MomEmitter::pairAddQH(SVal a) { return unop(Op::MPAIRADD_QH, a, ppairaddw); }

SVal
MomEmitter::bitsel(SVal mask, SVal a, SVal b)
{
    MOMSIM_ASSERT(mask.len == a.len && a.len == b.len,
                  "stream length mismatch");
    TraceInst &inst = emitStream(Op::MBITSEL, a.len);
    SVal r = newStream(a.len);
    inst.dst = r.reg;
    inst.src0 = mask.reg;
    inst.src1 = a.reg;
    inst.src2 = b.reg;
    for (int i = 0; i < a.len; ++i)
        r.e[i] = pbitsel(mask.e[i], a.e[i], b.e[i]);
    return r;
}

namespace
{

// Shift helpers bound to fixed counts via thread-local capture-free
// shims. thread_local matters: programs synthesize concurrently (a
// workload build is a task graph on several threads), and the count is
// only live across the unop() call that consumes it on the emitting
// thread.
thread_local int g_shiftCount = 0;
uint64_t shiftSll(uint64_t a) { return psllw(a, g_shiftCount); }
uint64_t shiftSra(uint64_t a) { return psraw(a, g_shiftCount); }
uint64_t shiftSrar(uint64_t a) { return psrarw(a, g_shiftCount); }

} // namespace

SVal
MomEmitter::sllQH(SVal a, int n)
{
    g_shiftCount = n;
    return unop(Op::MSLL_QH, a, shiftSll);
}

SVal
MomEmitter::sraQH(SVal a, int n)
{
    g_shiftCount = n;
    return unop(Op::MSRA_QH, a, shiftSra);
}

SVal
MomEmitter::srarQH(SVal a, int n)
{
    g_shiftCount = n;
    return unop(Op::MSRAR_QH, a, shiftSrar);
}

SVal MomEmitter::addVSQH(SVal a, MVal s) { return vsop(Op::MADDVS_QH, a, s, paddw); }
SVal MomEmitter::subVSQH(SVal a, MVal s) { return vsop(Op::MSUBVS_QH, a, s, psubw); }
SVal MomEmitter::mullVSQH(SVal a, MVal s) { return vsop(Op::MMULLVS_QH, a, s, pmullw); }
SVal MomEmitter::mulhVSQH(SVal a, MVal s) { return vsop(Op::MMULHVS_QH, a, s, pmulhw); }
SVal MomEmitter::scaleVSQH(SVal a, MVal s) { return vsop(Op::MSCALEVS_QH, a, s, pmulrw); }
SVal MomEmitter::maxVSQH(SVal a, MVal s) { return vsop(Op::MMAXVS_QH, a, s, pmaxsw); }
SVal MomEmitter::minVSQH(SVal a, MVal s) { return vsop(Op::MMINVS_QH, a, s, pminsw); }

void
MomEmitter::clrAcc(int acc)
{
    TraceInst &inst = _tb.emit(Op::CLRACC);
    inst.dst = isa::accReg(acc);
    _accs[acc].lane.fill(0);
}

void
MomEmitter::accMacQH(int acc, SVal a, SVal b)
{
    MOMSIM_ASSERT(a.len == b.len, "stream length mismatch");
    TraceInst &inst = emitStream(Op::ACCMAC_QH, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src1 = b.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i) {
        for (int l = 0; l < 4; ++l) {
            _accs[acc].lane[l] += static_cast<int64_t>(laneW(a.e[i], l)) *
                                  laneW(b.e[i], l);
        }
    }
}

void
MomEmitter::accMacVSQH(int acc, SVal a, MVal s)
{
    TraceInst &inst = emitStream(Op::ACCMACVS_QH, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src1 = s.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i) {
        for (int l = 0; l < 4; ++l) {
            _accs[acc].lane[l] += static_cast<int64_t>(laneW(a.e[i], l)) *
                                  laneW(s.v, l);
        }
    }
}

void
MomEmitter::accSadOB(int acc, SVal a, SVal b)
{
    MOMSIM_ASSERT(a.len == b.len, "stream length mismatch");
    TraceInst &inst = emitStream(Op::ACCSAD_OB, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src1 = b.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i)
        _accs[acc].lane[0] += static_cast<int64_t>(psadbw(a.e[i], b.e[i]));
}

void
MomEmitter::accAddQH(int acc, SVal a)
{
    TraceInst &inst = emitStream(Op::ACCADD_QH, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i) {
        for (int l = 0; l < 4; ++l)
            _accs[acc].lane[l] += laneW(a.e[i], l);
    }
}

void
MomEmitter::accSqrQH(int acc, SVal a)
{
    TraceInst &inst = emitStream(Op::ACCSQR_QH, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i) {
        for (int l = 0; l < 4; ++l) {
            _accs[acc].lane[l] += static_cast<int64_t>(laneW(a.e[i], l)) *
                                  laneW(a.e[i], l);
        }
    }
}

void
MomEmitter::accMaxQH(int acc, SVal a)
{
    TraceInst &inst = emitStream(Op::ACCMAX_QH, a.len);
    inst.dst = isa::accReg(acc);
    inst.src0 = a.reg;
    inst.src2 = isa::accReg(acc);
    for (int i = 0; i < a.len; ++i) {
        for (int l = 0; l < 4; ++l) {
            int64_t v = laneW(a.e[i], l);
            if (v > _accs[acc].lane[l])
                _accs[acc].lane[l] = v;
        }
    }
}

MVal
MomEmitter::raccSQH(int acc, int rshift)
{
    TraceInst &inst = _tb.emit(Op::RACCS_QH);
    inst.dst = _tb.allocMmx();
    inst.src0 = isa::accReg(acc);
    uint64_t r = 0;
    for (int l = 0; l < 4; ++l) {
        int64_t v = _accs[acc].lane[l] >> rshift;
        int32_t clamped = static_cast<int32_t>(
            std::min<int64_t>(INT32_MAX, std::max<int64_t>(INT32_MIN, v)));
        r = setLaneW(r, l, static_cast<uint16_t>(satS16(clamped)));
    }
    return { r, inst.dst };
}

MVal
MomEmitter::raccDW(int acc)
{
    TraceInst &inst = _tb.emit(Op::RACC_DW);
    inst.dst = _tb.allocMmx();
    inst.src0 = isa::accReg(acc);
    uint64_t r = 0;
    r = setLaneD(r, 0, static_cast<uint32_t>(_accs[acc].lane[0]));
    r = setLaneD(r, 1, static_cast<uint32_t>(_accs[acc].lane[1]));
    return { r, inst.dst };
}

IVal
MomEmitter::raccToInt(int acc)
{
    MVal dw = raccDW(acc);
    TraceInst &mov = _tb.emit(Op::MOVDFM);
    mov.dst = _tb.allocInt();
    mov.src0 = dw.reg;
    return { static_cast<int32_t>(dw.v & 0xFFFFFFFFull), mov.dst };
}

SVal
MomEmitter::rawBinop(Op op, SVal a, SVal b)
{
    MOMSIM_ASSERT(a.len == b.len, "stream length mismatch");
    TraceInst &inst = emitStream(op, a.len);
    SVal r = newStream(a.len);
    inst.dst = r.reg;
    inst.src0 = a.reg;
    inst.src1 = b.reg;
    inst.src2 = _slSrc;
    r.e = a.e;
    return r;
}

SVal
MomEmitter::zero()
{
    MOMSIM_ASSERT(_len > 0, "stream length not set");
    TraceInst &inst = emitStream(Op::MZERO, _len);
    SVal s = newStream(_len);
    inst.dst = s.reg;
    return s;
}

MVal
MomEmitter::extract(SVal a, int idx)
{
    TraceInst &inst = _tb.emit(Op::MEXTR);
    inst.dst = _tb.allocMmx();
    inst.src0 = a.reg;
    return { a.e[idx], inst.dst };
}

SVal
MomEmitter::insert(SVal a, int idx, MVal m)
{
    TraceInst &inst = _tb.emit(Op::MINSR);
    SVal r = a;
    r.reg = _tb.allocMom();
    inst.dst = r.reg;
    inst.src0 = a.reg;
    inst.src1 = m.reg;
    r.e[idx] = m.v;
    return r;
}

} // namespace momsim::trace
