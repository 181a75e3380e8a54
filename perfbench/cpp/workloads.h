/**
 * @file
 * The benchmark's workloads: seeded op lists over the simulator's
 * public entry points.
 *
 * Each workload is a closed loop: the benchmark issues one op (one call
 * into a layer's public entry point, wrapped in a span) after the
 * previous one returns. All inputs — op parameters, random indices,
 * request traces — are generated here from the seed during set-up;
 * the simulator receives only those generated inputs.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Simulated outputs of one op as " key=value" pairs. Floating-point
 * values are written in exact hexadecimal (%a), so two outputs compare
 * equal only when they are bit-identical.
 */
class OpOutput
{
  public:
    void add(const char *key, double value);
    void addInt(const char *key, long long value);
    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/** One op of a workload's op list. */
struct Op
{
    /// Op kind and inputs, space-separated, no spaces inside a field.
    std::string label;
    /// Simulated generated tokens (serve_sweep's unit of work).
    double simTokens = 0;
    std::function<void(OpOutput &)> run;
};

/** A workload: its op list and how the benchmark runs it. */
struct Workload
{
    /// Runtime pool size of an untraced run (traced runs use 1).
    int threads = 1;
    /// Counter whose per-op delta is checked with the op's outputs.
    const char *checkedCounter = "tpc.instructions";
    /// Simulated work is generated tokens; otherwise the delta of
    /// `checkedCounter` (TPC instructions).
    bool countsTokens = false;
    std::vector<Op> ops;
    /// Traced runs only: extra per-layer measurements taken outside
    /// the op loop, added to the per-layer table.
    std::function<void(std::map<std::string, double> &)> probe;
};

/** Names of all workloads, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Build workload `name` with inputs drawn from `seed`. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
