/**
 * @file
 * The benchmark's three workloads and the metric catalogue they fill.
 * Each workload drives the library only through public calls, in one
 * process, as a serial loop of calls; see perfbench/README.md for why
 * each was chosen and which end-to-end metric each layer metric should
 * move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** Model-scale quantize -> pack -> protect -> compress -> GEMV. */
WorkloadResult runLayerPipeline(const Options &o, Checks &checks);

/** Serving capacity planning: burst calibration + Poisson open loop. */
WorkloadResult runServeCapacity(const Options &o, Checks &checks);

/** Fig. 7/8 design sweep in measured mode, plus the TP points. */
WorkloadResult runDesignSweep(const Options &o, Checks &checks);

/** One entry of the metric catalogue. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported by every workload with --trace 0. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Reported by every workload with --trace 1. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Time @p setup, which rebuilds every set-up object from scratch.
 * Every round sets up afresh, so setup_s is a lower quartile over the
 * whole run like the other times.  The first set-up of a run is charged
 * from process start (@p from_start), minus @p input_gen_s of
 * benchmark-side input generation, so process start-up counts once in
 * the sample.
 */
template <typename Fn>
double
timedSetup(bool from_start, double input_gen_s, Fn &&setup)
{
    const auto t0 = Clock::now();
    setup();
    return from_start ? secondsSinceStart() - input_gen_s
                      : secondsSince(t0);
}

/** What round @p r of a run is for. */
enum class RoundKind
{
    Measured,  //!< untraced run: every round counts
    WarmUp,    //!< traced run, round 0: fills caches, compared nowhere
    Traced,
    Untraced,  //!< traced run: the base trace.overhead divides by
};

/**
 * Round plan: an untraced run measures every round.  A traced run
 * warms up once, then alternates traced and untraced rounds as
 * T U U T T U ... so neither side always runs first; a probe traces
 * its single round.
 */
inline RoundKind
roundKind(const Options &o, int r)
{
    if (!o.trace)
        return RoundKind::Measured;
    if (o.probe)
        return RoundKind::Traced;
    if (r == 0)
        return RoundKind::WarmUp;
    const int k = (r - 1) % 4;
    return k == 0 || k == 3 ? RoundKind::Traced : RoundKind::Untraced;
}

/** Minimum rounds of a run: @p measured untraced, 3 traced, 1 probe. */
inline int
minRounds(const Options &o, int measured)
{
    return o.probe ? 1 : o.trace ? 3 : measured;
}

/**
 * Run rounds until @p seconds have elapsed and at least @p min_rounds
 * ran, stopping only after a whole group of @p granule rounds.
 */
template <typename Fn>
void
runRounds(double seconds, int min_rounds, Fn &&round, int granule = 1)
{
    const auto t0 = Clock::now();
    for (int n = 0; n < min_rounds || n % granule != 0 ||
                    secondsSince(t0) < seconds;
         ++n)
        round(n);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
