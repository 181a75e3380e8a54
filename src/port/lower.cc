#include "port/lower.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/logging.h"

namespace vespera::port {

namespace {

/// Barrier-delimited run of body items (instrs / sync-free loops).
struct Segment
{
    std::vector<const CudaStmt *> items;
};

/// A loop whose body contains Sync: trips iterate sync-split chunks.
struct SyncLoop
{
    const CudaLoop *loop = nullptr;
    std::vector<std::vector<const CudaInstr *>> segs;
};

struct Unit
{
    bool isSyncLoop = false;
    Segment seg;
    SyncLoop syncLoop;
};

bool
loopHasSync(const CudaLoop &l)
{
    for (const CudaInstr &i : l.body)
        if (i.op == CudaOp::Sync)
            return true;
    return false;
}

std::vector<Unit>
splitUnits(const CudaKernelDesc &desc)
{
    std::vector<Unit> units;
    Segment cur;
    auto flush = [&] {
        if (!cur.items.empty()) {
            Unit u;
            u.seg = std::move(cur);
            units.push_back(std::move(u));
            cur = Segment{};
        }
    };
    for (const CudaStmt &s : desc.body) {
        if (s.kind == CudaStmt::Kind::Instr) {
            if (s.instr.op == CudaOp::Sync) {
                flush();
                continue;
            }
            cur.items.push_back(&s);
            continue;
        }
        if (!loopHasSync(s.loop)) {
            cur.items.push_back(&s);
            continue;
        }
        flush();
        Unit u;
        u.isSyncLoop = true;
        u.syncLoop.loop = &s.loop;
        std::vector<const CudaInstr *> chunk;
        for (const CudaInstr &i : s.loop.body) {
            if (i.op == CudaOp::Sync) {
                if (!chunk.empty())
                    u.syncLoop.segs.push_back(std::move(chunk));
                chunk.clear();
                continue;
            }
            chunk.push_back(&i);
        }
        if (!chunk.empty())
            u.syncLoop.segs.push_back(std::move(chunk));
        units.push_back(std::move(u));
    }
    flush();
    return units;
}

/** Lowers one thread block onto the TPC context. */
class BlockLowerer
{
  public:
    BlockLowerer(const CudaKernelDesc &desc, const LowerOptions &opts,
                 tpc::TpcContext &ctx, std::vector<tpc::Tensor> &tensors,
                 std::int64_t block)
        : desc_(desc), opts_(opts), ctx_(ctx), tensors_(tensors),
          block_(block),
          stripWidth_(warpSize * opts.warpsPerStrip),
          numStrips_(static_cast<int>(
              (desc.blockThreads + stripWidth_ - 1) / stripWidth_)),
          scratchBase_(desc.sharedElems),
          regs_(static_cast<std::size_t>(numStrips_))
    {
        for (auto &r : regs_)
            r.assign(static_cast<std::size_t>(desc.numRegs),
                     tpc::Vec{});
        vassert((scratchBase_ + stripWidth_) * 4 <=
                static_cast<std::int64_t>(tpc::kLocalMemoryBytes),
                "%s: shared memory (%lld elems) leaves no room for "
                "lowering scratch", desc.name.c_str(),
                static_cast<long long>(desc.sharedElems));
    }

    void
    run(const std::vector<Unit> &units)
    {
        zeroShared();
        for (const Unit &u : units) {
            if (!u.isSyncLoop) {
                emitSegment(u.seg.items, 0);
                continue;
            }
            for (std::int64_t trip = 0; trip < u.syncLoop.loop->trips;
                 trip++) {
                for (const auto &seg : u.syncLoop.segs)
                    emitChunk(seg, trip);
            }
        }
    }

  private:
    int
    stripLanes(int strip) const
    {
        const std::int64_t base =
            static_cast<std::int64_t>(strip) * stripWidth_;
        return static_cast<int>(std::min<std::int64_t>(
            stripWidth_, desc_.blockThreads - base));
    }

    LaneCtx
    laneCtx(int strip, int lane, std::int64_t iter) const
    {
        LaneCtx c;
        c.tid = static_cast<std::int64_t>(strip) * stripWidth_ + lane;
        c.lane = c.tid % warpSize;
        c.warp = c.tid / warpSize;
        c.block = block_;
        c.blockX = block_ % desc_.gridX;
        c.blockY = block_ / desc_.gridX;
        c.globalTid = block_ * desc_.blockThreads + c.tid;
        c.iter = iter;
        return c;
    }

    /// Register read with lazy zero-init (CUDA registers start
    /// undefined; the desc contract is read-as-zero, matching the
    /// reference interpreter).
    const tpc::Vec &
    getReg(int strip, std::int32_t r)
    {
        tpc::Vec &v = regs_[static_cast<std::size_t>(strip)]
                           [static_cast<std::size_t>(r)];
        if (v.id < 0) {
            ctx_.setOpLabel("port:reg-init");
            v = ctx_.v_zero(stripLanes(strip));
        }
        return v;
    }

    void
    setReg(int strip, std::int32_t r, tpc::Vec v)
    {
        regs_[static_cast<std::size_t>(strip)]
             [static_cast<std::size_t>(r)] = std::move(v);
    }

    tpc::Vec
    splat(float value, int lanes)
    {
        std::int32_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        const auto key = std::make_pair(bits, lanes);
        auto it = splats_.find(key);
        if (it != splats_.end())
            return it->second;
        ctx_.setOpLabel("port:alu");
        tpc::Vec v = ctx_.v_splat(value, lanes);
        splats_.emplace(key, v);
        return v;
    }

    tpc::Vec
    iota(int lanes)
    {
        auto it = iotas_.find(lanes);
        if (it != iotas_.end())
            return it->second;
        ctx_.setOpLabel("port:pred-mask");
        tpc::Vec v = ctx_.v_iota(lanes);
        iotas_.emplace(lanes, v);
        return v;
    }

    void
    zeroShared()
    {
        if (desc_.sharedElems <= 0)
            return;
        for (std::int64_t off = 0; off < desc_.sharedElems;
             off += stripWidth_) {
            const int lanes = static_cast<int>(std::min<std::int64_t>(
                stripWidth_, desc_.sharedElems - off));
            const tpc::Vec z = splat(0.0f, lanes);
            ctx_.setOpLabel("port:shared-init");
            ctx_.v_st_local(off, z);
        }
    }

    /// Per-lane addresses of a memory op for one strip.
    std::vector<std::int64_t>
    addrsFor(const CudaInstr &i, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        std::vector<std::int64_t> addrs(
            static_cast<std::size_t>(lanes));
        const tpc::Vec *idx = nullptr;
        if (i.addr.indexReg >= 0)
            idx = &getReg(strip, i.addr.indexReg);
        for (int l = 0; l < lanes; l++) {
            const LaneCtx c = laneCtx(strip, l, iter);
            AddrExpr a = i.addr;
            a.indexReg = -1;
            std::int64_t v = evalAddr(a, c, nullptr);
            if (idx != nullptr)
                v += static_cast<std::int64_t>(
                    idx->lanes[static_cast<std::size_t>(l)]);
            addrs[static_cast<std::size_t>(l)] = v;
        }
        return addrs;
    }

    /// Per-lane predicate activity for one strip.
    std::vector<char>
    activeFor(const Pred &p, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        std::vector<char> act(static_cast<std::size_t>(lanes), 1);
        if (!p.active)
            return act;
        const tpc::Vec *lhs = nullptr, *rhs = nullptr;
        if (p.onRegs) {
            lhs = &getReg(strip, p.lhsReg);
            rhs = &getReg(strip, p.rhsReg);
        }
        for (int l = 0; l < lanes; l++) {
            const LaneCtx c = laneCtx(strip, l, iter);
            bool on;
            if (p.onRegs) {
                float vals[2] = {
                    lhs->lanes[static_cast<std::size_t>(l)],
                    rhs->lanes[static_cast<std::size_t>(l)]};
                Pred q = p;
                q.lhsReg = 0;
                q.rhsReg = 1;
                on = evalPred(q, c, vals);
            } else {
                on = evalPred(p, c, nullptr);
            }
            act[static_cast<std::size_t>(l)] = on ? 1 : 0;
        }
        return act;
    }

    static bool
    allOf(const std::vector<char> &v)
    {
        return std::all_of(v.begin(), v.end(),
                           [](char c) { return c != 0; });
    }
    static bool
    anyOf(const std::vector<char> &v)
    {
        return std::any_of(v.begin(), v.end(),
                           [](char c) { return c != 0; });
    }

    /// Affine vector value a0 + l*d over the strip's lanes.
    tpc::Vec
    affineVec(std::int64_t a0, std::int64_t d, int lanes)
    {
        const tpc::Vec base = splat(static_cast<float>(a0), lanes);
        if (d == 0)
            return base;
        const tpc::Vec io = iota(lanes);
        ctx_.setOpLabel("port:pred-mask");
        return ctx_.v_mac_s(io, static_cast<float>(d), base);
    }

    /// Lane values of one side of an address-form predicate; panics
    /// unless affine in the lane index (mask must be expressible).
    std::pair<std::int64_t, std::int64_t>
    affineOf(const AddrExpr &e, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const LaneCtx c0 = laneCtx(strip, 0, iter);
        const std::int64_t a0 = evalAddr(e, c0, nullptr);
        if (lanes == 1)
            return {a0, 0};
        const LaneCtx c1 = laneCtx(strip, 1, iter);
        const std::int64_t d = evalAddr(e, c1, nullptr) - a0;
        for (int l = 2; l < lanes; l++) {
            const LaneCtx cl = laneCtx(strip, l, iter);
            vassert(evalAddr(e, cl, nullptr) == a0 + l * d,
                    "%s: predicate not affine in lane",
                    desc_.name.c_str());
        }
        return {a0, d};
    }

    /// Materialize the predicate as a 0/1 mask vector.
    tpc::Vec
    maskFor(const Pred &p, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        tpc::Vec lhs, rhs;
        if (p.onRegs) {
            lhs = getReg(strip, p.lhsReg);
            rhs = getReg(strip, p.rhsReg);
        } else {
            const auto [a0, d0] = affineOf(p.lhs, strip, iter);
            const auto [a1, d1] = affineOf(p.rhs, strip, iter);
            const MaskKey key{strip, a0, d0, a1, d1,
                              static_cast<int>(p.op)};
            auto it = masks_.find(key);
            if (it != masks_.end())
                return it->second;
            lhs = affineVec(a0, d0, lanes);
            rhs = affineVec(a1, d1, lanes);
            tpc::Vec m = cmpVec(p.op, lhs, rhs, lanes);
            masks_.emplace(key, m);
            return m;
        }
        return cmpVec(p.op, lhs, rhs, lanes);
    }

    tpc::Vec
    cmpVec(CmpOp op, const tpc::Vec &lhs, const tpc::Vec &rhs,
           int lanes)
    {
        switch (op) {
          case CmpOp::Lt:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_lt(lhs, rhs);
          case CmpOp::Ge:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_ge(lhs, rhs);
          case CmpOp::Eq:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_eq(lhs, rhs);
          case CmpOp::Ne: {
            const tpc::Vec one = splat(1.0f, lanes);
            ctx_.setOpLabel("port:pred-mask");
            const tpc::Vec eq = ctx_.v_cmp_eq(lhs, rhs);
            return ctx_.v_sub(one, eq);
          }
        }
        vpanic("bad cmp op");
    }

    /// Blend `fresh` over the destination's prior value under `pred`.
    tpc::Vec
    blend(const CudaInstr &i, int strip, std::int64_t iter,
          tpc::Vec fresh)
    {
        const tpc::Vec old = getReg(strip, i.dst);
        const tpc::Vec m = maskFor(i.pred, strip, iter);
        ctx_.setOpLabel("port:pred-blend");
        return ctx_.v_sel(m, fresh, old);
    }

    void
    emitSegment(const std::vector<const CudaStmt *> &items,
                std::int64_t iter)
    {
        const int unroll = std::max(1, opts_.stripUnroll);
        for (int g = 0; g < numStrips_; g += unroll) {
            const int gEnd = std::min(numStrips_, g + unroll);
            for (const CudaStmt *s : items) {
                if (s->kind == CudaStmt::Kind::Instr) {
                    for (int strip = g; strip < gEnd; strip++)
                        emitInstr(strip, s->instr, iter);
                    continue;
                }
                for (std::int64_t trip = 0; trip < s->loop.trips;
                     trip++) {
                    for (const CudaInstr &i : s->loop.body) {
                        for (int strip = g; strip < gEnd; strip++)
                            emitInstr(strip, i, trip);
                    }
                }
            }
        }
    }

    void
    emitChunk(const std::vector<const CudaInstr *> &instrs,
              std::int64_t iter)
    {
        const int unroll = std::max(1, opts_.stripUnroll);
        for (int g = 0; g < numStrips_; g += unroll) {
            const int gEnd = std::min(numStrips_, g + unroll);
            for (const CudaInstr *i : instrs) {
                for (int strip = g; strip < gEnd; strip++)
                    emitInstr(strip, *i, iter);
            }
        }
    }

    void
    emitInstr(int strip, const CudaInstr &i, std::int64_t iter)
    {
        switch (i.op) {
          case CudaOp::Sync:
            return; // Barriers are segmentation, not instructions.
          case CudaOp::LoadGlobal: return loadGlobal(strip, i, iter);
          case CudaOp::StoreGlobal: return storeGlobal(strip, i, iter);
          case CudaOp::LoadShared: return loadShared(strip, i, iter);
          case CudaOp::StoreShared: return storeShared(strip, i, iter);
          case CudaOp::AtomicAddShared:
            return atomicAddShared(strip, i, iter);
          case CudaOp::WarpReduceSum:
          case CudaOp::WarpReduceMax: {
            vassert(opts_.warpsPerStrip == 1,
                    "%s: warp reduction requires warpsPerStrip=1",
                    desc_.name.c_str());
            const tpc::Vec src = getReg(strip, i.src0);
            ctx_.setOpLabel("port:warp-reduce");
            const tpc::Vec r = i.op == CudaOp::WarpReduceSum
                                   ? ctx_.v_reduce_add(src)
                                   : ctx_.v_reduce_max(src);
            setReg(strip, i.dst,
                   ctx_.v_broadcast(r, stripLanes(strip)));
            return;
          }
          default:
            return alu(strip, i, iter);
        }
    }

    void
    alu(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const bool full = allOf(act);

        // Fetch operand vectors before setting the ALU label: lazy
        // register init / cached splats emit under their own labels.
        tpc::Vec v;
        if (i.op == CudaOp::MovImm) {
            v = splat(i.imm, lanes);
        } else if (i.op == CudaOp::Mov) {
            v = getReg(strip, i.src0); // Register rename: no instr.
        } else {
            const tpc::Vec a = getReg(strip, i.src0);
            tpc::Vec b, c, immv;
            const bool binary =
                i.op == CudaOp::Add || i.op == CudaOp::Sub ||
                i.op == CudaOp::Mul || i.op == CudaOp::Max ||
                i.op == CudaOp::Fma;
            if (binary)
                b = getReg(strip, i.src1);
            if (i.op == CudaOp::Fma)
                c = getReg(strip, i.src2);
            if (i.op == CudaOp::AddImm)
                immv = splat(i.imm, lanes);

            ctx_.setOpLabel("port:alu");
            switch (i.op) {
              case CudaOp::Add: v = ctx_.v_add(a, b); break;
              case CudaOp::Sub: v = ctx_.v_sub(a, b); break;
              case CudaOp::Mul: v = ctx_.v_mul(a, b); break;
              case CudaOp::Max: v = ctx_.v_max(a, b); break;
              case CudaOp::Fma: v = ctx_.v_mac(a, b, c); break;
              case CudaOp::AddImm: v = ctx_.v_add(a, immv); break;
              case CudaOp::MulImm: v = ctx_.v_mul_s(a, i.imm); break;
              case CudaOp::Exp: v = ctx_.v_exp(a); break;
              case CudaOp::Rsqrt: v = ctx_.v_rsqrt(a); break;
              case CudaOp::Recip: v = ctx_.v_reciprocal(a); break;
              default:
                vpanic("unhandled ALU op %s", cudaOpName(i.op));
            }
        }
        if (!full)
            v = blend(i, strip, iter, std::move(v));
        setReg(strip, i.dst, std::move(v));
    }

    void
    loadGlobal(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        tpc::Tensor &t = tensors_[static_cast<std::size_t>(i.buf)];
        const std::vector<std::int64_t> addrs = addrsFor(i, strip, iter);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const bool full = allOf(act);

        const bool uniform = std::all_of(
            addrs.begin(), addrs.end(),
            [&](std::int64_t a) { return a == addrs[0]; });
        bool contiguous = !i.addr.dataDependent();
        for (std::size_t l = 1; contiguous && l < addrs.size(); l++)
            contiguous = addrs[l] == addrs[0] + static_cast<std::int64_t>(l);

        tpc::Vec v;
        if (uniform && !i.addr.dataDependent()) {
            ctx_.setOpLabel("port:ld-uniform");
            const tpc::Vec lv =
                ctx_.v_ld_tnsr({addrs[0], 0, 0, 0, 0}, t, 4,
                               tpc::Access::Stream);
            v = ctx_.v_broadcast(lv, lanes);
        } else if (contiguous) {
            vassert(addrs[0] >= 0,
                    "%s: contiguous load underruns buffer '%s' "
                    "(allocate halo padding)", desc_.name.c_str(),
                    desc_.buffers[static_cast<std::size_t>(i.buf)]
                        .name.c_str());
            ctx_.setOpLabel("port:ld-warp");
            v = ctx_.v_ld_tnsr({addrs[0], 0, 0, 0, 0}, t,
                               static_cast<Bytes>(lanes) * 4,
                               tpc::Access::Stream);
        } else {
            // Strided or data-dependent: shatter into per-lane 4 B
            // transactions assembled through local scratch.
            const tpc::Access acc = i.addr.dataDependent()
                                        ? tpc::Access::Random
                                        : tpc::Access::Stream;
            tpc::Vec old;
            if (!full)
                old = getReg(strip, i.dst);
            ctx_.setOpLabel("port:ld-shatter");
            if (!full)
                ctx_.v_st_local(scratchBase_, old);
            for (int l = 0; l < lanes; l++) {
                if (!act[static_cast<std::size_t>(l)])
                    continue;
                const tpc::Vec lv = ctx_.v_ld_tnsr(
                    {addrs[static_cast<std::size_t>(l)], 0, 0, 0, 0},
                    t, 4, acc);
                ctx_.v_st_local(scratchBase_ + l, lv);
            }
            v = ctx_.v_ld_local(scratchBase_, lanes);
            setReg(strip, i.dst, std::move(v));
            return; // Inactive lanes already carry the old value.
        }
        if (!full)
            v = blend(i, strip, iter, std::move(v));
        setReg(strip, i.dst, std::move(v));
    }

    void
    storeGlobal(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        tpc::Tensor &t = tensors_[static_cast<std::size_t>(i.buf)];
        const std::vector<std::int64_t> addrs = addrsFor(i, strip, iter);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const bool full = allOf(act);
        const tpc::Vec src = getReg(strip, i.src0);

        bool contiguous = !i.addr.dataDependent();
        for (std::size_t l = 1; contiguous && l < addrs.size(); l++)
            contiguous = addrs[l] == addrs[0] + static_cast<std::int64_t>(l);

        if (contiguous && addrs[0] >= 0) {
            if (full) {
                ctx_.setOpLabel("port:st-warp");
                ctx_.v_st_tnsr({addrs[0], 0, 0, 0, 0}, t, src);
                return;
            }
            // Predicated store: TPC has no write masks — emulate with
            // a read-modify-write blend (extra read traffic).
            ctx_.setOpLabel("port:pred-blend");
            const tpc::Vec old =
                ctx_.v_ld_tnsr({addrs[0], 0, 0, 0, 0}, t,
                               static_cast<Bytes>(lanes) * 4,
                               tpc::Access::Stream);
            const tpc::Vec m = maskFor(i.pred, strip, iter);
            ctx_.setOpLabel("port:pred-blend");
            const tpc::Vec merged = ctx_.v_sel(m, src, old);
            ctx_.setOpLabel("port:st-warp");
            ctx_.v_st_tnsr({addrs[0], 0, 0, 0, 0}, t, merged);
            return;
        }

        const tpc::Access acc = i.addr.dataDependent()
                                    ? tpc::Access::Random
                                    : tpc::Access::Stream;
        ctx_.setOpLabel("port:st-shatter");
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!act[static_cast<std::size_t>(l)])
                continue;
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            ctx_.v_st_tnsr(
                {addrs[static_cast<std::size_t>(l)], 0, 0, 0, 0}, t,
                lv, acc);
        }
    }

    void
    loadShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const std::vector<std::int64_t> addrs = addrsFor(i, strip, iter);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const bool full = allOf(act);

        const bool uniform = std::all_of(
            addrs.begin(), addrs.end(),
            [&](std::int64_t a) { return a == addrs[0]; });
        bool contiguous = !i.addr.dataDependent();
        for (std::size_t l = 1; contiguous && l < addrs.size(); l++)
            contiguous = addrs[l] == addrs[0] + static_cast<std::int64_t>(l);

        tpc::Vec v;
        if (uniform && !i.addr.dataDependent()) {
            ctx_.setOpLabel("port:shared-ld");
            const tpc::Vec lv = ctx_.v_ld_local(addrs[0], 1);
            v = ctx_.v_broadcast(lv, lanes);
            if (!full)
                v = blend(i, strip, iter, std::move(v));
        } else if (contiguous && full && addrs[0] >= 0 &&
                   addrs[0] + lanes <= desc_.sharedElems) {
            ctx_.setOpLabel("port:shared-ld");
            v = ctx_.v_ld_local(addrs[0], lanes);
        } else if (contiguous) {
            // Shifted / clipped window (e.g. a scan step reading
            // shared[tid - d]): realign through scratch and blend.
            const tpc::Vec old = getReg(strip, i.dst);
            ctx_.setOpLabel("port:shared-ld");
            ctx_.v_st_local(scratchBase_, old);
            const std::int64_t lo = std::max<std::int64_t>(addrs[0], 0);
            const std::int64_t hi = std::min<std::int64_t>(
                addrs[0] + lanes, desc_.sharedElems);
            if (hi > lo) {
                const tpc::Vec part = ctx_.v_ld_local(
                    lo, static_cast<int>(hi - lo));
                ctx_.v_st_local(scratchBase_ + (lo - addrs[0]), part);
            }
            v = ctx_.v_ld_local(scratchBase_, lanes);
            if (!full)
                v = blend(i, strip, iter, std::move(v));
        } else {
            // Per-lane local gather.
            tpc::Vec old;
            if (!full)
                old = getReg(strip, i.dst);
            ctx_.setOpLabel("port:shared-ld");
            if (!full)
                ctx_.v_st_local(scratchBase_, old);
            for (int l = 0; l < lanes; l++) {
                if (!act[static_cast<std::size_t>(l)])
                    continue;
                const tpc::Vec lv = ctx_.v_ld_local(
                    addrs[static_cast<std::size_t>(l)], 1);
                ctx_.v_st_local(scratchBase_ + l, lv);
            }
            v = ctx_.v_ld_local(scratchBase_, lanes);
        }
        setReg(strip, i.dst, std::move(v));
    }

    void
    storeShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const std::vector<std::int64_t> addrs = addrsFor(i, strip, iter);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const bool full = allOf(act);
        const tpc::Vec src = getReg(strip, i.src0);

        bool contiguous = !i.addr.dataDependent();
        for (std::size_t l = 1; contiguous && l < addrs.size(); l++)
            contiguous = addrs[l] == addrs[0] + static_cast<std::int64_t>(l);

        ctx_.setOpLabel("port:shared-st");
        if (contiguous && full && addrs[0] >= 0 &&
            addrs[0] + lanes <= desc_.sharedElems) {
            ctx_.v_st_local(addrs[0], src);
            return;
        }
        // Per-lane scatter into local memory.
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!act[static_cast<std::size_t>(l)])
                continue;
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            ctx_.v_st_local(addrs[static_cast<std::size_t>(l)], lv);
        }
    }

    void
    atomicAddShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const std::vector<std::int64_t> addrs = addrsFor(i, strip, iter);
        const std::vector<char> act = activeFor(i.pred, strip, iter);
        if (!anyOf(act))
            return;
        const tpc::Vec src = getReg(strip, i.src0);

        // Atomics have no TPC equivalent: the block owns its local
        // memory, so the lowering serializes lanes (read-add-write per
        // lane) — correct, and expensive in exactly the way the
        // scorecard should surface.
        ctx_.setOpLabel("port:atomic");
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!act[static_cast<std::size_t>(l)])
                continue;
            const std::int64_t a =
                addrs[static_cast<std::size_t>(l)];
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            const tpc::Vec hv = ctx_.v_ld_local(a, 1);
            const tpc::Vec nv = ctx_.v_add(hv, lv);
            ctx_.v_st_local(a, nv);
        }
    }

    struct MaskKey
    {
        int strip;
        std::int64_t a0, d0, a1, d1;
        int op;
        bool
        operator<(const MaskKey &o) const
        {
            return std::tie(strip, a0, d0, a1, d1, op) <
                   std::tie(o.strip, o.a0, o.d0, o.a1, o.d1, o.op);
        }
    };

    const CudaKernelDesc &desc_;
    const LowerOptions &opts_;
    tpc::TpcContext &ctx_;
    std::vector<tpc::Tensor> &tensors_;
    std::int64_t block_;
    int stripWidth_;
    int numStrips_;
    std::int64_t scratchBase_;
    std::vector<std::vector<tpc::Vec>> regs_;
    std::map<std::pair<std::int32_t, int>, tpc::Vec> splats_;
    std::map<int, tpc::Vec> iotas_;
    std::map<MaskKey, tpc::Vec> masks_;
};

bool
usesWarpOps(const CudaKernelDesc &desc)
{
    auto instrHas = [](const CudaInstr &i) {
        return i.op == CudaOp::WarpReduceSum ||
               i.op == CudaOp::WarpReduceMax;
    };
    for (const CudaStmt &s : desc.body) {
        if (s.kind == CudaStmt::Kind::Instr) {
            if (instrHas(s.instr))
                return true;
        } else {
            for (const CudaInstr &i : s.loop.body)
                if (instrHas(i))
                    return true;
        }
    }
    return false;
}

} // namespace

PortRun
lowerAndRun(const CudaKernelDesc &desc, const LowerOptions &options)
{
    validateDesc(desc);
    vassert(options.warpsPerStrip >= 1 && options.warpsPerStrip <= 8,
            "%s: bad warpsPerStrip %d", desc.name.c_str(),
            options.warpsPerStrip);
    vassert(options.stripUnroll >= 1, "%s: bad stripUnroll %d",
            desc.name.c_str(), options.stripUnroll);
    if (options.warpsPerStrip > 1) {
        vassert(!usesWarpOps(desc),
                "%s: warpsPerStrip > 1 would widen warp reductions",
                desc.name.c_str());
    }

    // Shared state for the per-TPC kernel closures. The desc is
    // copied: the closure may outlive the caller's storage.
    auto descPtr = std::make_shared<CudaKernelDesc>(desc);
    auto tensors = std::make_shared<std::vector<tpc::Tensor>>();
    tensors->reserve(desc.buffers.size());
    for (const BufferDesc &b : desc.buffers) {
        tpc::Tensor t({b.elems}, DataType::FP32);
        t.fill([&b](std::int64_t i) { return bufferInitValue(b, i); });
        tensors->push_back(std::move(t));
    }
    auto units = std::make_shared<std::vector<Unit>>(splitUnits(desc));

    const LowerOptions opts = options;
    tpc::Kernel kernel = [descPtr, tensors, units,
                          opts](tpc::TpcContext &ctx) {
        for (std::int64_t block = ctx.memberStart(1);
             block < ctx.memberEnd(1); block++) {
            BlockLowerer lower(*descPtr, opts, ctx, *tensors, block);
            lower.run(*units);
        }
    };

    tpc::IndexSpace space;
    space.size = {1, desc.gridBlocks, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = static_cast<int>(std::min<std::int64_t>(
        opts.numTpcs, desc.gridBlocks));
    params.partitionDim = 1;
    params.vectorBytes =
        static_cast<Bytes>(warpSize * opts.warpsPerStrip) * 4;
    params.kernelName = desc.name;

    tpc::TpcDispatcher dispatcher;
    PortRun run;
    run.launch = dispatcher.launch(kernel, space, params);
    run.tensors = std::move(tensors);
    return run;
}

} // namespace vespera::port
