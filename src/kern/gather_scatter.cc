#include "kern/gather_scatter.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "cuda/simt.h"
#include "tpc/dispatcher.h"

namespace vespera::kern {

namespace {

/// Value a scatter writes; outside the 0..60 range of the fill.
constexpr float scatterPayload = -1.0f;

} // namespace

GatherScatterResult
runGatherScatterGaudi(const GatherScatterConfig &c, Rng &rng)
{
    vassert(c.numVectors > 0 && c.vectorBytes > 0, "bad config");
    vassert(c.accessFraction > 0 && c.accessFraction <= 1.0,
            "access fraction out of (0,1]");

    const Bytes es = dtypeSize(c.dt);
    const auto lanes = static_cast<std::int64_t>(c.vectorBytes / es);
    const auto num_vectors = static_cast<std::int64_t>(c.numVectors);
    const auto num_accesses = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(c.accessFraction * num_vectors));

    // Row r holds the constant r % 61.
    tpc::Tensor array({lanes, num_vectors}, c.dt);
    array.fillRows(
        [](std::int64_t row) { return static_cast<float>(row % 61); });
    // Index list, read by the kernel in 256 B chunks.
    tpc::Tensor indices({num_accesses}, DataType::FP32);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(num_accesses));
    for (auto &v : idx)
        v = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(num_vectors)));
    indices.fill([&idx](std::int64_t i) {
        return static_cast<float>(idx[static_cast<std::size_t>(i)]);
    });

    // Per-TPC accumulator output (one column per TPC).
    tpc::Tensor out({lanes, c.numTpcs}, DataType::FP32);

    const std::int64_t per_tpc =
        (num_accesses + c.numTpcs - 1) / c.numTpcs;
    const bool scatter = c.scatter;
    const int unroll = std::max(1, c.unroll);
    const int num_accs = std::max(1, c.accumulators);
    const Bytes vec_bytes = c.vectorBytes;

    tpc::Kernel kernel = [&, per_tpc, lanes, scatter, unroll, num_accs,
                          vec_bytes](tpc::TpcContext &ctx) {
        for (std::int64_t t = ctx.memberStart(1); t < ctx.memberEnd(1);
             t++) {
            const std::int64_t begin = t * per_tpc;
            const std::int64_t end =
                std::min(begin + per_tpc, num_accesses);
            if (begin >= end)
                continue;
            // Independent accumulator chains keep the reduction off the
            // critical path (4-cycle vector latency, Section 2.2). A
            // scatter instead holds the payload, the same on every TPC,
            // and stores the first register.
            std::vector<tpc::Vec> accs;
            for (int q = 0; q < num_accs; q++)
                accs.push_back(scatter
                                   ? ctx.v_splat(scatterPayload,
                                                 static_cast<int>(lanes))
                                   : ctx.v_zero(static_cast<int>(lanes)));
            constexpr std::int64_t idx_chunk = 64; // 256 B of indices.
            for (std::int64_t i = begin; i < end; i += idx_chunk) {
                // Stage a 256 B block of indices (streaming load).
                (void)ctx.v_ld_tnsr({i, 0, 0, 0, 0}, indices, 256,
                                    tpc::Access::Stream);
                const std::int64_t blk_end =
                    std::min(i + idx_chunk, end);
                for (std::int64_t j = i; j < blk_end; j += unroll) {
                    std::vector<tpc::Vec> vs;
                    for (int u = 0; u < unroll && j + u < blk_end; u++) {
                        const std::int64_t target =
                            idx[static_cast<std::size_t>(j + u)];
                        tpc::Int5 coord{0, target, 0, 0, 0};
                        if (scatter) {
                            ctx.v_st_tnsr(coord, array, accs[0],
                                          tpc::Access::Random);
                        } else {
                            vs.push_back(ctx.v_ld_tnsr(
                                coord, array, vec_bytes,
                                tpc::Access::Random));
                        }
                    }
                    for (std::size_t u = 0; u < vs.size(); u++) {
                        auto &acc = accs[u % accs.size()];
                        acc = ctx.v_add(acc, vs[u]);
                    }
                }
            }
            tpc::Vec total = accs[0];
            for (std::size_t q = 1; q < accs.size(); q++)
                total = ctx.v_add(total, accs[q]);
            // One streaming store of the accumulator per TPC.
            ctx.v_st_tnsr({0, t % c.numTpcs, 0, 0, 0}, out, total,
                          tpc::Access::Stream);
        }
    };

    static const tpc::TpcDispatcher dispatcher;
    tpc::IndexSpace space;
    space.size = {1, c.numTpcs, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = c.numTpcs;
    params.vectorBytes = std::min<Bytes>(c.vectorBytes, 256);
    params.kernelName = scatter ? "scatter" : "gather";
    auto launch = dispatcher.launch(kernel, space, params);

    if (scatter) {
        // Verify: every indexed row holds the payload in all lanes and
        // every other row keeps its fill value.
        std::vector<bool> hit(static_cast<std::size_t>(num_vectors));
        for (std::int64_t target : idx)
            hit[static_cast<std::size_t>(target)] = true;
        const float *data = array.data();
        for (std::int64_t row = 0; row < num_vectors; row++) {
            const float want = hit[static_cast<std::size_t>(row)]
                                   ? scatterPayload
                                   : static_cast<float>(row % 61);
            bool ok = true;
            for (std::int64_t l = 0; l < lanes; l++)
                ok &= data[row * lanes + l] == want;
            vassert(ok, "scatter verification failed at row %lld",
                    static_cast<long long>(row));
        }
    } else {
        // Verify: the sum of all accumulators equals the reference sum
        // over the gathered rows (lane 0 suffices: rows are constant).
        double got = 0;
        for (int t = 0; t < c.numTpcs; t++)
            got += out.at(tpc::Int5{0, t, 0, 0, 0});
        double want = 0;
        for (std::int64_t j = 0; j < num_accesses; j++)
            want += static_cast<double>(
                idx[static_cast<std::size_t>(j)] % 61);
        vassert(std::abs(got - want) <= 1e-4 * std::max(1.0, want),
                "gather verification failed: %f != %f", got, want);
    }

    GatherScatterResult r;
    r.time = launch.time;
    r.usefulBytes =
        static_cast<Bytes>(num_accesses) * c.vectorBytes;
    r.hbmUtilization = static_cast<double>(r.usefulBytes) /
                       (r.time * hw::gaudi2Spec().hbmBandwidth);
    return r;
}

GatherScatterResult
runGatherScatterA100(const GatherScatterConfig &c)
{
    static const cuda::SimtModel model;
    const auto num_accesses = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(c.accessFraction * c.numVectors));
    auto cost =
        model.gatherScatter(c.vectorBytes, num_accesses, c.scatter);

    GatherScatterResult r;
    r.time = cost.time;
    r.usefulBytes = num_accesses * c.vectorBytes;
    r.hbmUtilization = cost.hbmUtilization;
    return r;
}

} // namespace vespera::kern
