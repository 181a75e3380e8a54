/**
 * @file
 * Host-speed calibration for the benchmark's time metrics.
 *
 * The benchmark shares its host with other tenants, whose load slows
 * every thread of it in spells that switch on and off within
 * milliseconds and come and go over minutes. A fixed calibration loop,
 * timed on the benchmark's own thread right after each op, slows with
 * it. The end-to-end time metrics divide host time by the mean
 * duration of the loop in the same pass, so that they count time in
 * units of the calibration ("cal") instead of seconds.
 *
 * The loop does hash-table updates, the kind of work the simulator's
 * memo tables and the serving engine spend their time on. Its table
 * is warmed by an untimed run first, so its timed run starts from the
 * same cache state whatever the preceding op left behind: a change to
 * the simulator moves the ops, not the calibration.
 */

#ifndef PERFBENCH_CALIB_H
#define PERFBENCH_CALIB_H

#include <cstdint>
#include <unordered_map>

#include "spans.h"

namespace perfbench {

/** The calibration loop and its table, kept for the whole run. */
class Calibration
{
  public:
    /** Warms the table, then returns the duration of one timed run. */
    std::int64_t
    measureNs()
    {
        run();
        const std::int64_t t0 = nowNs();
        run();
        return nowNs() - t0;
    }

  private:
    static constexpr std::uint64_t kKeys = 20000;
    static constexpr int kUpdates = 20000;

    void
    run()
    {
        std::uint64_t x = 7;
        for (int i = 0; i < kUpdates; i++) {
            x = x * 6364136223846793005ULL + 1;
            table_[x % kKeys] += static_cast<std::uint64_t>(i);
        }
    }

    std::unordered_map<std::uint64_t, std::uint64_t> table_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIB_H
