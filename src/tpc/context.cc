#include "tpc/context.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace vespera::tpc {

namespace {

/// Buffers of up to 2^(kLaneClasses-1) lanes are recycled. Class c
/// holds buffers of exactly 2^c lanes; the smallest holds 16.
constexpr std::size_t kLaneClasses = 17;

std::size_t
laneClass(std::size_t n)
{
    return n <= 16 ? 4 : static_cast<std::size_t>(std::bit_width(n - 1));
}

/// Free buffers of one thread: an intrusive list per class, linked
/// through each buffer's first bytes.
struct LaneFreeList
{
    std::array<void *, kLaneClasses> head{};

    ~LaneFreeList();
};

/// Set once this thread's list is destroyed; buffers released later in
/// thread exit go straight back to the heap.
thread_local bool laneListGone = false;
thread_local LaneFreeList laneList;

LaneFreeList::~LaneFreeList()
{
    for (void *p : head) {
        while (p) {
            void *next;
            std::memcpy(&next, p, sizeof next);
            ::operator delete(p);
            p = next;
        }
    }
    laneListGone = true;
}

} // namespace

float *
laneAlloc(std::size_t n)
{
    const std::size_t cls = laneClass(n);
    if (cls < kLaneClasses && !laneListGone) {
        void *&head = laneList.head[cls];
        if (head) {
            void *p = head;
            std::memcpy(&head, p, sizeof head);
            return static_cast<float *>(p);
        }
    }
    const std::size_t lanes = cls < kLaneClasses ? std::size_t{1} << cls : n;
    return static_cast<float *>(::operator new(lanes * sizeof(float)));
}

void
laneFree(float *p, std::size_t n) noexcept
{
    const std::size_t cls = laneClass(n);
    if (cls < kLaneClasses && !laneListGone) {
        void *&head = laneList.head[cls];
        std::memcpy(p, &head, sizeof head);
        head = p;
        return;
    }
    ::operator delete(p);
}

namespace {

/// Instr::memStream id of the TPC-local scratchpad.
constexpr std::uint32_t localMemStream = 1;

/// Label text of each intrinsic, indexed by TpcContext::Op.
constexpr const char *kIntrinsicNames[] = {
    "v_ld_tnsr", "v_st_tnsr", "v_add", "v_sub", "v_mul", "v_max",
    "v_mac", "v_mul_s", "v_mac_s", "v_zero", "v_exp", "v_reciprocal",
    "v_rsqrt", "v_splat", "v_iota", "v_cmp_eq", "v_cmp_lt", "v_cmp_ge",
    "v_sel", "v_reduce_max", "v_reduce_add", "v_broadcast", "s_ld",
    "v_st_local", "v_ld_local",
};

} // namespace

TpcContext::TpcContext(Program &program, const MemberRange &range,
                       Bytes default_vector_bytes, Bytes local_memory_bytes)
    : program_(program), range_(range),
      defaultVectorBytes_(default_vector_bytes),
      localMemoryBytes_(local_memory_bytes)
{
    static_assert(std::size(kIntrinsicNames) ==
                  static_cast<std::size_t>(Op::Count));
    vassert(default_vector_bytes > 0, "zero vector width");
    labelIds_.fill(-1);
}

void
TpcContext::setOpLabel(std::string_view label)
{
    userLabel_ = label.empty() ? -1 : program_.internLabel(label);
}

std::int16_t
TpcContext::opLabel(Op op)
{
    if (userLabel_ >= 0)
        return userLabel_;
    std::int16_t &id = labelIds_[static_cast<std::size_t>(op)];
    if (id < 0)
        id = program_.internLabel(
            kIntrinsicNames[static_cast<std::size_t>(op)]);
    return id;
}

std::uint32_t
TpcContext::streamId(const void *key)
{
    for (std::size_t i = 0; i < streams_.size(); i++) {
        if (streams_[i] == key)
            return static_cast<std::uint32_t>(i + 2);
    }
    streams_.push_back(key);
    return static_cast<std::uint32_t>(streams_.size() + 1);
}

Vec
TpcContext::newVec(std::size_t lanes)
{
    Vec v;
    v.id = program_.newValue();
    v.lanes.resize(lanes);
    return v;
}

Vec
TpcContext::v_ld_tnsr(const Int5 &coord, const Tensor &t, Bytes bytes,
                      Access access)
{
    if (bytes == 0)
        bytes = defaultVectorBytes_;
    const Bytes es = dtypeSize(t.dtype());
    vassert(bytes >= es, "load smaller than one element");
    const auto lanes = static_cast<std::int64_t>(bytes / es);

    Vec v = newVec(static_cast<std::size_t>(lanes));
    // flatten() checks the coordinate; the span is clamped at the
    // tensor end and the lanes past it stay zero.
    const std::int64_t base = t.flatten(coord);
    const std::int64_t limit = std::min(lanes, t.numElements() - base);
    std::copy_n(t.data() + base, limit, v.lanes.data());

    Instr instr;
    instr.slot = Slot::Load;
    instr.dst = v.id;
    instr.memBytes = bytes;
    instr.access = access;
    instr.lanes = static_cast<std::int32_t>(lanes);
    instr.memOffset = base * static_cast<std::int64_t>(es);
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::LdTnsr);
    program_.append(instr);
    return v;
}

void
TpcContext::v_st_tnsr(const Int5 &coord, Tensor &t, const Vec &v,
                      Access access)
{
    vassert(v.id >= 0, "storing an uninitialized vector");
    const std::int64_t base = t.flatten(coord);
    const std::int64_t limit =
        std::min<std::int64_t>(v.laneCount(), t.numElements() - base);
    float *dst = t.data() + base;
    if (access == Access::Random) {
        // Random stores may hit the same rows from several TPCs at
        // once (scatter); relaxed atomic lane stores keep that
        // race-free at the cost of a plain store.
        for (std::int64_t i = 0; i < limit; i++)
            std::atomic_ref<float>(dst[i]).store(
                v.lanes[static_cast<std::size_t>(i)],
                std::memory_order_relaxed);
    } else {
        std::copy_n(v.lanes.data(), limit, dst);
    }

    Instr instr;
    instr.slot = Slot::Store;
    instr.src0 = v.id;
    instr.memBytes = static_cast<Bytes>(v.laneCount()) *
                     dtypeSize(t.dtype());
    instr.access = access;
    instr.lanes = v.laneCount();
    instr.memOffset =
        base * static_cast<std::int64_t>(dtypeSize(t.dtype()));
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::StTnsr);
    program_.append(instr);
}

template <typename F>
Vec
TpcContext::binaryOp(const Vec &a, const Vec &b, F op, Op name)
{
    vassert(a.laneCount() == b.laneCount(),
            "lane mismatch: %d vs %d", a.laneCount(), b.laneCount());
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = op(a.lanes[i], b.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = b.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(name);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_add(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, [](float x, float y) { return x + y; }, Op::Add);
}

Vec
TpcContext::v_sub(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, [](float x, float y) { return x - y; }, Op::Sub);
}

Vec
TpcContext::v_mul(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, [](float x, float y) { return x * y; }, Op::Mul);
}

Vec
TpcContext::v_max(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, [](float x, float y) { return std::max(x, y); },
                    Op::Max);
}

Vec
TpcContext::v_mac(const Vec &a, const Vec &b, const Vec &acc)
{
    vassert(a.laneCount() == b.laneCount() &&
            a.laneCount() == acc.laneCount(),
            "lane mismatch in v_mac");
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * b.lanes[i] + acc.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = b.id;
    instr.src2 = acc.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Mac);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_mul_s(const Vec &a, float scalar)
{
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * scalar;

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::MulS);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_mac_s(const Vec &a, float scalar, const Vec &acc)
{
    vassert(a.laneCount() == acc.laneCount(), "lane mismatch in v_mac_s");
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * scalar + acc.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = acc.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::MacS);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_zero(int lanes)
{
    vassert(lanes > 0, "zero-lane vector");
    Vec r = newVec(static_cast<std::size_t>(lanes));

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Zero);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_exp(const Vec &a)
{
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = std::exp(a.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    // Special-function unit: several flops worth of issue per lane.
    instr.flopsPerLane = 4.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Exp);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reciprocal(const Vec &a)
{
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = 1.0f / a.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Reciprocal);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_rsqrt(const Vec &a)
{
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = 1.0f / std::sqrt(a.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Rsqrt);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_splat(float value, int lanes)
{
    vassert(lanes > 0, "zero-lane splat");
    Vec r = newVec(static_cast<std::size_t>(lanes));
    std::fill(r.lanes.begin(), r.lanes.end(), value);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Splat);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_iota(int lanes)
{
    vassert(lanes > 0, "zero-lane iota");
    Vec r = newVec(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; i++)
        r.lanes[static_cast<std::size_t>(i)] = static_cast<float>(i);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Iota);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_cmp_eq(const Vec &a, const Vec &b)
{
    return binaryOp(a, b,
                    [](float x, float y) { return x == y ? 1.0f : 0.0f; },
                    Op::CmpEq);
}

Vec
TpcContext::v_cmp_lt(const Vec &a, const Vec &b)
{
    return binaryOp(a, b,
                    [](float x, float y) { return x < y ? 1.0f : 0.0f; },
                    Op::CmpLt);
}

Vec
TpcContext::v_cmp_ge(const Vec &a, const Vec &b)
{
    return binaryOp(a, b,
                    [](float x, float y) { return x >= y ? 1.0f : 0.0f; },
                    Op::CmpGe);
}

Vec
TpcContext::v_sel(const Vec &mask, const Vec &a, const Vec &b)
{
    vassert(mask.laneCount() == a.laneCount() &&
            mask.laneCount() == b.laneCount(),
            "lane mismatch in v_sel");
    Vec r = newVec(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = mask.lanes[i] != 0.0f ? a.lanes[i] : b.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = mask.id;
    instr.src1 = a.id;
    instr.src2 = b.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Sel);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reduce_max(const Vec &a)
{
    vassert(a.laneCount() > 0, "reducing empty vector");
    Vec r = newVec(1);
    float m = a.lanes[0];
    for (float v : a.lanes)
        m = std::max(m, v);
    r.lanes[0] = m;

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f; // Tree reduction, ~1 op per lane.
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::ReduceMax);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reduce_add(const Vec &a)
{
    vassert(a.laneCount() > 0, "reducing empty vector");
    Vec r = newVec(1);
    double s = 0;
    for (float v : a.lanes)
        s += v;
    r.lanes[0] = static_cast<float>(s);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::ReduceAdd);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_broadcast(const Vec &a, int lanes)
{
    vassert(a.laneCount() >= 1 && lanes > 0, "bad broadcast");
    Vec r = newVec(static_cast<std::size_t>(lanes));
    std::fill(r.lanes.begin(), r.lanes.end(), a.lanes[0]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Broadcast);
    program_.append(instr);
    return r;
}

float
TpcContext::s_ld(const Int5 &coord, const Tensor &t, Access access)
{
    const std::int64_t flat = t.flatten(coord);
    const float value = t.data()[flat];

    Instr instr;
    instr.slot = Slot::Scalar;
    instr.dst = program_.newValue();
    instr.memBytes = dtypeSize(t.dtype());
    instr.access = access;
    instr.lanes = 1;
    instr.memOffset =
        flat * static_cast<std::int64_t>(dtypeSize(t.dtype()));
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::SLd);
    program_.append(instr);
    return value;
}

void
TpcContext::v_st_local(std::int64_t elem_offset, const Vec &v)
{
    vassert(elem_offset >= 0, "negative local offset");
    const std::int64_t end = elem_offset + v.laneCount();
    vassert(static_cast<Bytes>(end) * 4 <= localMemoryBytes_,
            "local memory overflow: %lld lanes > %llu bytes",
            static_cast<long long>(end),
            static_cast<unsigned long long>(localMemoryBytes_));
    if (static_cast<std::size_t>(end) > localMem_.size())
        localMem_.resize(static_cast<std::size_t>(end), 0.0f);
    std::copy(v.lanes.begin(), v.lanes.end(),
              localMem_.begin() + elem_offset);
    localHighWater_ = std::max(localHighWater_, end);

    Instr instr;
    instr.slot = Slot::Store;
    instr.src0 = v.id;
    instr.memBytes = static_cast<Bytes>(v.laneCount()) * 4;
    instr.access = Access::Local;
    instr.lanes = v.laneCount();
    instr.memOffset = elem_offset * 4;
    instr.memStream = localMemStream;
    instr.opLabel = opLabel(Op::StLocal);
    program_.append(instr);
}

Vec
TpcContext::v_ld_local(std::int64_t elem_offset, int lanes)
{
    vassert(elem_offset >= 0 && lanes > 0, "bad local load");
    vassert(static_cast<Bytes>(elem_offset + lanes) * 4 <=
            localMemoryBytes_, "local memory read out of bounds");
    Vec v = newVec(static_cast<std::size_t>(lanes));
    // Local memory never written reads as zero.
    const auto written = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(localMem_.size()) - elem_offset, 0,
        lanes);
    if (written > 0)
        std::copy_n(localMem_.data() + elem_offset, written,
                    v.lanes.data());

    Instr instr;
    instr.slot = Slot::Load;
    instr.dst = v.id;
    instr.memBytes = static_cast<Bytes>(lanes) * 4;
    instr.access = Access::Local;
    instr.lanes = lanes;
    instr.memOffset = elem_offset * 4;
    instr.memStream = localMemStream;
    instr.opLabel = opLabel(Op::LdLocal);
    program_.append(instr);
    return v;
}

} // namespace vespera::tpc
