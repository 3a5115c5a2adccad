/**
 * @file
 * serve_capacity: capacity planning for Llama-2-7B on BitMoD at
 * analytic precision.  Each round calibrates capacity per scheduler
 * (FCFS, largest-batch-first) with a burst of simulated requests all
 * queued at cycle 0, then runs seeded Poisson open loops at 0.9x the
 * calibrated capacity.  In an untraced run every capacity query runs a
 * trace of its own, so a run samples many traces and its statistics do
 * not hinge on a few; a traced run repeats round 0's.  Prompts are ragged (32-512 tokens), 64 output tokens,
 * 1024-token prefill budget.  "Open loop" and "burst" describe
 * the simulated arrivals; the benchmark itself is a serial loop of
 * simulateServing calls.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "accel/policy.hh"
#include "core/bitmod_api.hh"
#include "serve/serving_sim.hh"
#include "workloads.hh"

using namespace bitmod;

namespace perfbench
{

namespace
{

constexpr double kLoad = 0.9;  //!< Poisson rate / calibrated capacity

struct Setup
{
    std::optional<AccelSim> sim;
    PrecisionChoice precision;
};

ServingParams
baseParams()
{
    ServingParams p;
    p.inTokens = 32;
    p.inTokensMax = 512;
    p.outTokens = 64;
    p.prefillTokenBudget = 1024;
    return p;
}

/** Seeded engine-step mix shaped like the serving legs' steps. */
std::vector<StepWork>
stepMix(uint64_t seed, size_t n, size_t pe_rows)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x57e9);
    std::vector<StepWork> mix(n);
    for (StepWork &w : mix) {
        w.decodeSeqs = rng.below(pe_rows + 1);
        for (size_t s = 0; s < w.decodeSeqs; ++s)
            w.decodeContextSum += double(32 + rng.below(481) +
                                         rng.below(64));
        const size_t room = pe_rows - w.decodeSeqs;
        size_t budget = 1024;
        for (size_t s = rng.below(std::min<size_t>(room, 3) + 1); s > 0;
             --s) {
            const size_t m = 32 + rng.below(481);
            if (w.prefillSeqs > 0 && m > budget)
                break;
            budget -= std::min(budget, m);
            w.prefillSeqs += 1;
            w.prefillTokens += m;
            w.prefillAttnTokenPairs += double(m) * (m + 1.0) / 2.0;
        }
        if (w.empty())
            w.decodeSeqs = 1, w.decodeContextSum = 64.0;
    }
    return mix;
}

void
addReport(Digest &d, const ServingReport &r)
{
    for (const LatencySummary *l : {&r.ttftMs, &r.tpotMs, &r.e2eMs})
        for (const double x : {l->p50, l->p95, l->p99, l->mean, l->max})
            d.add(x);
    d.add(uint64_t(r.completed));
    d.add(uint64_t(r.steps));
    d.add(r.totalCycles);
    d.add(r.traffic.weightBytes);
    d.add(r.traffic.kvBytes);
    d.add(r.energy.totalNj());
}

/** Serving conservation: nothing lost, nothing decoded twice. */
void
checkConservation(Checks &checks, const ServingReport &r, size_t n,
                  const char *leg)
{
    double tokens = 0.0;
    size_t done = 0;
    for (const ServingRequest &q : r.requests) {
        if (!q.rejected && q.tokensOut == q.outTokens &&
            q.finishCycle >= 0.0) {
            tokens += double(q.outTokens);
            ++done;
        }
    }
    checks.expect(r.arrivals == n && r.requests.size() == n,
                  std::string(leg) + ": every request arrived");
    checks.expect(r.completed + r.rejected == r.arrivals &&
                      done == r.completed,
                  std::string(leg) + ": completed + rejected == arrivals");
    checks.expect(tokens == r.completedTokens,
                  std::string(leg) + ": completed tokens == sum outTokens");
}

/** Accumulates one leg's calls (Poisson or burst). */
struct Leg
{
    double requests = 0, seconds = 0, steps = 0, calls = 0;
    double occupancySteps = 0;  //!< sum of occupancy x steps
    size_t peakQueue = 0;

    void
    add(const ServingReport &r, double s)
    {
        requests += double(r.completed);
        seconds += s;
        steps += double(r.steps);
        calls += 1;
        occupancySteps += r.meanBatchOccupancy * double(r.steps);
        peakQueue = std::max(peakQueue, r.peakQueueDepth);
    }
};

} // namespace

WorkloadResult
runServeCapacity(const Options &o, Checks &checks)
{
    const LlmSpec &model = llmByName("Llama-2-7B");
    const size_t burstN[2] = {o.probe ? 2048u : 16384u,
                              o.probe ? 512u : 2048u};
    const size_t poissonN = o.probe ? 2000 : 10000;
    const int poissonQueries = o.probe ? 2 : 10;
    const SchedulerKind scheds[2] = {SchedulerKind::Fcfs,
                                     SchedulerKind::LargestBatchFirst};

    // ---- benchmark-side input generation (excluded from setup_s)
    const auto tGen = Clock::now();
    const std::vector<StepWork> mix =
        stepMix(o.seed, o.probe ? 2000 : 20000,
                size_t(accelByName("BitMoD").peRows));
    const double inputGenS = secondsSince(tGen);

    Setup setup;
    std::vector<double> setupS;

    // The serving simulator is single-threaded: every round moves it to
    // the CPU where a small burst runs fastest.
    QuietCpu quiet;
    const AccelSim probeSim(accelByName("BitMoD"));
    const PrecisionChoice probePrecision =
        selectLossyPrecision(accelByName("BitMoD"), model, true);
    ServingParams probeParams = baseParams();
    probeParams.numRequests = 512;

    Leg poisson, burst;  // traced rounds
    // Measured rounds: rates of single Poisson calls, seconds of each
    // scheduler's burst, and capacity-query times.
    std::vector<double> poissonRps, burstS[2], queryMs;
    std::vector<double> untracedWall, tracedWall, digests;
    double ttftP99 = 0.0, outputsDigest = 0.0;
    std::vector<double> query0;  // round 0's first query, per scheduler

    const auto poissonParams = [&](int r, int i, int si,
                                   const double capacity[2]) {
        ServingParams p = baseParams();
        p.scheduler = scheds[si];
        p.arrivalRatePerSec = kLoad * capacity[si];
        p.numRequests = poissonN;
        p.seed = o.seed * 1000003 + 1 + uint64_t(r) * poissonQueries + i;
        return p;
    };
    double capacity[2] = {0, 0};

    const auto round = [&](int r) {
        setupS.push_back(timedSetup(r == 0, inputGenS, [&] {
            const AccelConfig accel = accelByName("BitMoD");
            setup.sim.emplace(accel);
            setup.precision = selectLossyPrecision(accel, model, true);
            ServingParams warm = baseParams();
            warm.numRequests = 1000;
            (void)simulateServing(*setup.sim, model, setup.precision,
                                  warm);
        }));
        quiet.pin([&] {
            (void)simulateServing(probeSim, model, probePrecision,
                                  probeParams);
        });
        const RoundKind kind = roundKind(o, r);
        const bool traced = kind == RoundKind::Traced;
        tracer().setEnabled(traced);
        ScopedSpan roundSpan("bench.serve_capacity.round");
        const auto t0 = Clock::now();
        Digest digest;
        for (int si = 0; si < 2; ++si) {
            ServingParams p = baseParams();
            p.scheduler = scheds[si];
            p.arrivalRatePerSec = 0.0;
            p.numRequests = burstN[si];
            p.seed = o.seed * 1000003 + 101 + si;
            ServingReport rep;
            const double s = timed("serve.simulateServing", [&] {
                rep = simulateServing(*setup.sim, model, setup.precision,
                                      p);
            });
            checkConservation(checks, rep, p.numRequests, "burst");
            capacity[si] = rep.achievedRps;
            if (kind == RoundKind::Measured)
                burstS[si].push_back(s);
            if (traced)
                burst.add(rep, s);
            addReport(digest, rep);
        }
        // The bursts repeat every round; each round's queries are new.
        digests.push_back(digest.value());
        checks.expect(digest.value() == digests.front(),
                      "burst calibration reproduces the first round's");
        // One capacity query: the same seeded trace under each
        // scheduler, at 0.9x that scheduler's capacity.
        for (int i = 0; i < poissonQueries; ++i) {
            double queryS = 0.0;
            for (int si = 0; si < 2; ++si) {
                // A traced run repeats round 0's traces, so its traced
                // and untraced rounds do the same work.
                const ServingParams p =
                    poissonParams(o.trace ? 0 : r, i, si, capacity);
                ServingReport rep;
                const double s = timed("serve.simulateServing", [&] {
                    rep = simulateServing(*setup.sim, model,
                                          setup.precision, p);
                });
                checkConservation(checks, rep, p.numRequests, "poisson");
                if (kind == RoundKind::Measured)
                    poissonRps.push_back(double(rep.completed) / s);
                if (traced)
                    poisson.add(rep, s);
                addReport(digest, rep);
                if (r == 0 && i == 0) {
                    Digest q;
                    addReport(q, rep);
                    query0.push_back(q.value());
                    if (si == 0)
                        ttftP99 = rep.ttftMs.p99;
                }
                queryS += s;
            }
            if (kind == RoundKind::Measured)
                queryMs.push_back(queryS * 1e3);
        }
        if (r == 0)
            outputsDigest = digest.value();
        if (traced)
            tracedWall.push_back(secondsSince(t0));
        else if (kind == RoundKind::Untraced)
            untracedWall.push_back(secondsSince(t0));
        tracer().setEnabled(false);
    };
    // Enough queries that p90 leaves ten samples beyond it.
    runRounds(o.probe ? 0.0 : o.seconds,
              minRounds(o, int((samplesForTail(90) + poissonQueries - 1) /
                               poissonQueries)),
              round);
    // Replaying round 0's first query reproduces it exactly.
    for (int si = 0; si < 2; ++si) {
        Digest q;
        addReport(q, simulateServing(*setup.sim, model, setup.precision,
                                     poissonParams(0, 0, si, capacity)));
        checks.expect(q.value() == query0[si],
                      "Poisson query replay reproduces round 0's");
    }

    WorkloadResult res;
    if (!o.trace) {
        // Poisson calls carry different traces, so their rates are the
        // samples (the upper quartile of rates is the lower quartile of
        // seconds per request); every burst repeats, so each
        // scheduler's burst contributes its lower-quartile time.
        const double poissonRate = percentile(poissonRps, 75);
        const double burstRate =
            double(burstN[0] + burstN[1]) /
            (lowerQuartile(burstS[0]) + lowerQuartile(burstS[1]));
        res.endToEnd["setup_s"] = {lowerQuartile(setupS), "s"};
        res.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
        res.endToEnd["work_per_s"] = {poissonRate, "1/s"};
        res.endToEnd["stress_per_s"] = {burstRate, "1/s"};
        res.endToEnd["call_ms_p25"] = {lowerQuartile(queryMs), "ms"};
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "serve_poisson_rps %.4g req/s (work_per_s, %zu calls); "
                      "serve_burst_rps %.4g req/s (stress_per_s, %zu rounds)",
                      poissonRate, poissonRps.size(), burstRate,
                      burstS[0].size());
        res.notes.push_back(buf);
        std::snprintf(buf, sizeof(buf),
                      "Poisson capacity query (a %zu-request trace of its "
                      "own under FCFS and under largest-batch-first): p25 "
                      "%.4g ms, p50 %.4g ms, p90 %.4g ms over %zu queries "
                      "(%zu beyond p90)",
                      poissonN, lowerQuartile(queryMs),
                      percentile(queryMs, 50), percentile(queryMs, 90),
                      queryMs.size(), samplesBeyond(queryMs.size(), 90));
        res.notes.push_back(buf);
        return res;
    }

    // ---- traced run: stepCost replay, then the per-layer metrics
    tracer().setEnabled(true);
    std::vector<double> nsPerCall;
    double sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const double s = timed("accel.AccelSim::stepCost", [&] {
            for (const StepWork &w : mix)
                sink += setup.sim->stepCost(model, setup.precision, w)
                            .cycles();
        });
        nsPerCall.push_back(s * 1e9 / double(mix.size()));
    }
    tracer().setEnabled(false);
    checks.expect(std::isfinite(sink) && sink > 0.0,
                  "stepCost replay charges positive cycles");

    const double stepNs = median(nsPerCall);
    const double poissonNs = poisson.seconds * 1e9 / poisson.steps;
    const double burstNs = burst.seconds * 1e9 / burst.steps;
    Metrics &m = res.perLayer;
    m["accel.step_cost_ns"] = {stepNs, "ns"};
    m["serve.poisson_steps"] = {poisson.steps / poisson.calls, "count"};
    m["serve.burst_steps"] = {burst.steps / burst.calls, "count"};
    m["serve.poisson_ns_per_step"] = {poissonNs, "ns"};
    m["serve.burst_ns_per_step"] = {burstNs, "ns"};
    m["serve.poisson_self_ns_per_step"] = {poissonNs - stepNs, "ns"};
    m["serve.burst_self_ns_per_step"] = {burstNs - stepNs, "ns"};
    m["serve.peak_queue_depth"] = {double(burst.peakQueue), "count"};
    m["serve.mean_batch_occupancy"] = {burst.occupancySteps / burst.steps,
                                       "count"};
    m["sim.poisson_ttft_p99_ms"] = {ttftP99, "ms"};
    m["sim.outputs_digest"] = {outputsDigest, "count"};
    if (!o.probe)
        m["trace.overhead"] = {
            traceOverhead(median(tracedWall), median(untracedWall)),
            "ratio"};
    return res;
}

} // namespace perfbench
