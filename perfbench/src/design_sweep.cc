/**
 * @file
 * design_sweep: the Fig. 7/8 sweep through simulateDeployment in
 * measured mode — {Baseline-FP16, ANT, OliVe, BitMoD} x the six zoo
 * models x {discriminative, generative} x batch {1, 8, 64}, plus
 * BitMoD at TP {1, 2, 4} per model — with a fresh ProfileCache per
 * pass.  It reuses quant/pe at small cache-resident proxy shapes
 * across many calls and shares work through cache hits; it is the only
 * workload that runs AccelSim::run and ShardedSim.
 */

#include <cmath>
#include <cstdio>

#include "accel/policy.hh"
#include "accel/sharding.hh"
#include "core/bitmod_api.hh"
#include "tensor/generator.hh"
#include "workloads.hh"

using namespace bitmod;

namespace perfbench
{

namespace
{

struct Point
{
    std::string accel, model;
    Workload workload;
    size_t batch;
    int tp;  //!< 0 = single chip
};

DeployRequest
requestFor(const Point &p, ProfileCache *cache, const ProfileConfig &pcfg)
{
    DeployRequest r(p.accel, p.model);
    r.with(p.workload).with(Policy::Lossy).withBatch(p.batch);
    r.withMeasured(cache, pcfg);
    if (p.tp > 0)
        r.withSharding(p.tp);
    return r;
}

double
reportDigest(const DeploymentSummary &s)
{
    Digest d;
    const RunReport &r = s.report;
    for (const double x :
         {r.prefillCycles, r.decodeCycles, r.prefillComputeCycles,
          r.prefillMemCycles, r.decodeComputeCycles, r.decodeMemCycles,
          r.energy.dramNj, r.energy.bufferNj, r.energy.coreNj,
          r.energy.interconnectNj, r.traffic.total().weightBytes,
          r.traffic.total().activationBytes, r.traffic.total().kvBytes,
          r.traffic.total().interconnectBytes,
          s.precision.weightBitsPerElem,
          s.precision.effectualTermsPerWeight})
        d.add(x);
    return d.value();
}

/** One pass over a point list with its own fresh cache. */
struct Pass
{
    std::vector<DeploymentSummary> summaries;
    std::vector<double> seconds;
    std::vector<bool> missed;  //!< the point measured a profile
    double unshardedS = 0, shardedS = 0;
    size_t unsharded = 0, sharded = 0;
    size_t hits = 0, misses = 0;
};

Pass
runPass(const std::vector<Point> &points, const ProfileConfig &pcfg)
{
    Pass pass;
    ProfileCache cache;
    for (const Point &p : points) {
        const size_t before = cache.misses();
        DeploymentSummary s;
        const double t = timed("core.simulateDeployment", [&] {
            s = simulateDeployment(requestFor(p, &cache, pcfg));
        });
        pass.missed.push_back(cache.misses() > before);
        pass.seconds.push_back(t);
        (p.tp > 0 ? pass.shardedS : pass.unshardedS) += t;
        ++(p.tp > 0 ? pass.sharded : pass.unsharded);
        pass.summaries.push_back(std::move(s));
    }
    pass.hits = cache.hits();
    pass.misses = cache.misses();
    return pass;
}

} // namespace

WorkloadResult
runDesignSweep(const Options &o, Checks &checks)
{
    const int T = o.threads;
    const std::vector<std::string> accels = {"Baseline-FP16", "ANT",
                                             "OliVe", "BitMoD"};
    std::vector<std::string> models;
    for (const LlmSpec &m : llmZoo())
        models.push_back(m.name);
    if (o.probe)
        models.resize(1);
    const std::vector<size_t> batches =
        o.probe ? std::vector<size_t>{1} : std::vector<size_t>{1, 8, 64};
    const std::vector<int> tps =
        o.probe ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

    std::vector<Point> points;
    for (const Workload w : {Workload::Discriminative, Workload::Generative})
        for (const std::string &m : models)
            for (const size_t b : batches)
                for (const std::string &a : accels)
                    points.push_back({a, m, w, b, 0});
    for (const std::string &m : models)
        for (const int tp : tps)
            points.push_back({"BitMoD", m, Workload::Generative, 1, tp});

    ProfileConfig pcfg;
    pcfg.seed = o.seed * 0x9e3779b97f4a7c15ULL + 0xb17d0d;
    pcfg.threads = T;

    // ---- benchmark-side input generation (excluded from setup_s)
    const auto tGen = Clock::now();
    Rng rng(o.seed + 0x5eed);
    const Matrix proxy = generateWeights(
        pcfg.maxRows, pcfg.maxCols, llmByName("Llama-2-7B").genParams, rng);
    const double inputGenS = secondsSince(tGen);

    // A round is one model's points on a fresh cache (profiles are
    // keyed by model, so this shares exactly what a whole-sweep cache
    // would); a pass is one round per model.  Its set-up is one
    // measured point on a fresh cache, so the interned term tables and
    // per-thread scratch exist before the first timed point.
    const size_t M = models.size();
    std::vector<std::vector<size_t>> byModel(M);
    for (size_t i = 0; i < points.size(); ++i)
        for (size_t m = 0; m < M; ++m)
            if (points[i].model == models[m])
                byModel[m].push_back(i);

    std::vector<double> setupS, modelDigest(M, -1.0);
    std::vector<std::vector<double>> pointMs(points.size());
    std::vector<std::vector<double>> unshardedS(M), shardedS(M);
    std::vector<double> passWall;
    std::vector<RoundKind> passKind;
    Pass last;  // the latest traced (untraced run: measured) pass
    last.summaries.resize(points.size());
    last.seconds.resize(points.size());
    last.missed.resize(points.size());
    std::vector<size_t> hits(M), misses(M);
    std::vector<double> latestS(M);
    const auto round = [&](int r) {
        const size_t m = size_t(r) % M;
        setupS.push_back(timedSetup(r == 0, inputGenS, [&] {
            ProfileCache cache;
            (void)simulateDeployment(
                requestFor({"BitMoD", models.front(),
                            Workload::Generative, 1, 0},
                           &cache, pcfg));
        }));
        const RoundKind kind = roundKind(o, r / int(M));
        const bool traced = kind == RoundKind::Traced;
        tracer().setEnabled(traced);
        ScopedSpan roundSpan("bench.design_sweep.model");
        const auto t0 = Clock::now();
        std::vector<Point> sub;
        for (const size_t i : byModel[m])
            sub.push_back(points[i]);
        Pass pass = runPass(sub, pcfg);
        Digest digest;
        for (size_t k = 0; k < sub.size(); ++k) {
            const DeploymentSummary &s = pass.summaries[k];
            checks.expect(std::isfinite(s.latencyMs()) &&
                              s.latencyMs() > 0.0,
                          sub[k].accel + "/" + sub[k].model +
                              ": positive finite latency");
            if (sub[k].tp == 0 && kind == RoundKind::Measured)
                pointMs[byModel[m][k]].push_back(pass.seconds[k] * 1e3);
            digest.add(reportDigest(s));
        }
        if (kind == RoundKind::Measured) {
            unshardedS[m].push_back(pass.unshardedS);
            shardedS[m].push_back(pass.shardedS);
        }
        if (modelDigest[m] < 0.0)
            modelDigest[m] = digest.value();
        checks.expect(digest.value() == modelDigest[m],
                      models[m] + ": round reproduces the first pass");
        if (m == 0) {
            passWall.push_back(0.0);
            passKind.push_back(kind);
        }
        passWall.back() += secondsSince(t0);
        if (traced || kind == RoundKind::Measured) {
            for (size_t k = 0; k < sub.size(); ++k) {
                const size_t i = byModel[m][k];
                last.summaries[i] = std::move(pass.summaries[k]);
                last.seconds[i] = pass.seconds[k];
                last.missed[i] = pass.missed[k];
            }
            hits[m] = pass.hits;
            misses[m] = pass.misses;
            latestS[m] = pass.unshardedS;
        }
        tracer().setEnabled(false);
    };
    // Traced runs stop on whole passes, which trace.overhead compares;
    // untraced ones may stop after any model, since every metric is a
    // per-model or per-point median.
    runRounds(o.probe ? 0.0 : o.seconds, int(M) * minRounds(o, 2), round,
              o.trace ? int(M) : 1);
    for (size_t m = 0; m < M; ++m) {
        last.hits += hits[m];
        last.misses += misses[m];
        last.unshardedS += latestS[m];
    }
    for (const Point &p : points)
        ++(p.tp > 0 ? last.sharded : last.unsharded);

    // TP=1 through the sharding knob reproduces the single-chip run.
    const auto indexOf = [&](const Point &q) {
        for (size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            if (p.accel == q.accel && p.model == q.model &&
                p.workload == q.workload && p.batch == q.batch &&
                p.tp == q.tp)
                return i;
        }
        return points.size();
    };
    std::vector<double> speedups;
    for (const std::string &m : models) {
        const auto &s = last.summaries;
        const size_t one = indexOf({"BitMoD", m, Workload::Generative, 1, 0});
        const size_t tp1 = indexOf({"BitMoD", m, Workload::Generative, 1, 1});
        const size_t base =
            indexOf({"Baseline-FP16", m, Workload::Generative, 1, 0});
        checks.expect(reportDigest(s[one]) == reportDigest(s[tp1]),
                      m + ": TP=1 equals the single-chip run");
        speedups.push_back(s[base].report.decodeCycles /
                           s[one].report.decodeCycles);
    }
    double logSum = 0.0;
    for (const double x : speedups)
        logSum += std::log(x);
    const double speedupGeo = std::exp(logSum / speedups.size());

    // The 1-thread pass over one model (chosen by seed) must reproduce
    // the nproc-thread pass point for point.
    if (!o.probe) {
        const std::string &m = models[o.seed % models.size()];
        std::vector<Point> subset;
        std::vector<size_t> where;
        for (size_t i = 0; i < points.size(); ++i)
            if (points[i].model == m) {
                subset.push_back(points[i]);
                where.push_back(i);
            }
        ProfileConfig one = pcfg;
        one.threads = 1;
        const bool wasTracing = tracer().enabled();
        tracer().setEnabled(false);
        const Pass serial = runPass(subset, one);
        tracer().setEnabled(wasTracing);
        for (size_t k = 0; k < subset.size(); ++k)
            checks.expect(reportDigest(serial.summaries[k]) ==
                              reportDigest(last.summaries[where[k]]),
                          m + ": 1-thread point equals the " +
                              std::to_string(T) + "-thread point");
    }

    WorkloadResult res;
    if (!o.trace) {
        res.endToEnd["setup_s"] = {lowerQuartile(setupS), "s"};
        res.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
        // Per-model lower quartiles over passes, so a slow stretch of
        // the run skews one model's sample rather than a whole pass.
        double unshardedS25 = 0.0, shardedS25 = 0.0;
        for (size_t m = 0; m < M; ++m) {
            unshardedS25 += lowerQuartile(unshardedS[m]);
            shardedS25 += lowerQuartile(shardedS[m]);
        }
        const double pointsPerS = last.unsharded / unshardedS25;
        const double tpPointsPerS = last.sharded / shardedS25;
        res.endToEnd["work_per_s"] = {pointsPerS, "1/s"};
        res.endToEnd["stress_per_s"] = {tpPointsPerS, "1/s"};
        // Each point's latency is its lower quartile over passes; the
        // percentiles run across the points.
        std::vector<double> callMs;
        for (const std::vector<double> &t : pointMs)
            if (!t.empty())
                callMs.push_back(lowerQuartile(t));
        res.endToEnd["call_ms_p25"] = {lowerQuartile(callMs), "ms"};
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "sweep_points_per_s %.4g (work_per_s, %zu points "
                      "a pass); TP points per s %.4g (stress_per_s, %zu "
                      "points)",
                      pointsPerS, last.unsharded, tpPointsPerS,
                      last.sharded);
        res.notes.push_back(buf);
        std::snprintf(buf, sizeof(buf),
                      "simulateDeployment point (lower quartile over "
                      "passes): p25 %.4g ms, p90 %.4g ms over %zu points "
                      "(%zu beyond p90); profile cache %zu hits / %zu "
                      "misses a pass",
                      lowerQuartile(callMs), percentile(callMs, 90),
                      callMs.size(), samplesBeyond(callMs.size(), 90),
                      last.hits, last.misses);
        res.notes.push_back(buf);
        return res;
    }

    // ---- traced run: replay the layers simulateDeployment called, on
    // the latest traced pass, so each is timed from outside.
    tracer().setEnabled(true);
    ProfileCache replayCache;
    std::vector<double> runUs, shardedUs;
    double measureS = 0.0, unshardedMeasureS = 0.0, selectS = 0.0;
    size_t selected = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const DeploymentSummary &s = last.summaries[i];
        const LlmSpec &model = llmByName(p.model);
        const DeployRequest req = requestFor(p, nullptr, pcfg);
        const AccelConfig accel = accelByName(p.accel);
        if (p.tp == 0) {
            // The precision policy does not depend on the batch, so the
            // batch-1 points stand for every batch.  Its ANT/OliVe
            // quality check runs on the library's shared pool.
            if (p.batch == 1) {
                PrecisionChoice choice;
                selectS += timed("accel.selectLossyPrecision", [&] {
                    choice = selectLossyPrecision(
                        accel, model, p.workload == Workload::Generative);
                });
                ++selected;
                checks.expect(choice.weightDtype.name ==
                                  s.precision.weightDtype.name,
                              p.accel + "/" + p.model +
                                  ": precision replay equals the point");
            }
            if (last.missed[i]) {
                const double t = timed("accel.measureProfile", [&] {
                    (void)replayCache.get(model, s.precision.quantConfig,
                                          pcfg);
                });
                measureS += t;
                unshardedMeasureS += t;
            }
            RunReport r;
            runUs.push_back(1e6 * timed("accel.AccelSim::run", [&] {
                r = AccelSim(accel).run(model, req.resolvedTask(),
                                        s.precision);
            }));
            checks.expect(r.totalCycles() == s.report.totalCycles() &&
                              r.energy.totalNj() ==
                                  s.report.energy.totalNj(),
                          p.accel + "/" + p.model +
                              ": AccelSim::run replay equals the point");
            continue;
        }
        const PrecisionChoice base = selectLossyPrecision(accel, model, true);
        ShardingConfig cfg;
        cfg.tpDegree = p.tp;
        if (last.missed[i])
            measureS += timed("accel.measureShardedProfiles", [&] {
                (void)measureShardedProfiles(model, base.quantConfig, pcfg,
                                             p.tp, &replayCache);
            });
        std::vector<ShardLane> lanes;
        timed("accel.buildShardLanes", [&] {
            lanes = buildShardLanes(model, base, cfg, true, pcfg,
                                    &replayCache);
        });
        const ShardedSim sim(AccelSim(accel), cfg, std::move(lanes));
        ShardedRunReport rr;
        shardedUs.push_back(1e6 * timed("accel.ShardedSim::run", [&] {
            rr = sim.run(model, req.resolvedTask());
        }));
        checks.expect(rr.combined.totalCycles() == s.report.totalCycles(),
                      p.model + " TP" + std::to_string(p.tp) +
                          ": ShardedSim::run replay equals the point");
    }

    // Thread-scaling leg at the proxy shape measureProfile quantizes.
    std::vector<double> q1, qn;
    for (int rep = 0; rep < (o.probe ? 5 : 20); ++rep) {
        for (const int threads : {1, T}) {
            const QuantConfig cfg = bitmodConfig(3, 128, threads);
            const double s = timed("quant.quantizeMatrix", [&] {
                (void)quantizeMatrix(proxy, cfg);
            });
            (threads == 1 ? q1 : qn).push_back(double(proxy.size()) / s);
        }
    }
    tracer().setEnabled(false);

    Metrics &m = res.perLayer;
    m["quant.quantize_wps"] = {median(qn), "w/s"};
    m["quant.quantize_thread_efficiency"] = {
        threadEfficiency(median(qn), median(q1), T), "ratio"};
    m["accel.measure_profile_s"] = {measureS, "s"};
    m["accel.profile_hits"] = {double(last.hits), "count"};
    m["accel.profile_misses"] = {double(last.misses), "count"};
    m["accel.select_precision_ms"] = {1e3 * selectS / selected, "ms"};
    m["accel.run_us"] = {median(runUs), "us"};
    m["accel.sharded_run_us"] = {median(shardedUs), "us"};
    m["core.deploy_ms"] = {
        1e3 * (last.unshardedS - unshardedMeasureS) / last.unsharded, "ms"};
    m["sim.bitmod_decode_speedup_geomean"] = {speedupGeo, "ratio"};
    Digest all;
    for (const double d : modelDigest)
        all.add(d);
    m["sim.outputs_digest"] = {all.value(), "count"};
    if (!o.probe) {
        std::vector<double> tracedWall, untracedWall;
        for (size_t p = 0; p < passWall.size(); ++p) {
            if (passKind[p] == RoundKind::Traced)
                tracedWall.push_back(passWall[p]);
            else if (passKind[p] == RoundKind::Untraced)
                untracedWall.push_back(passWall[p]);
        }
        m["trace.overhead"] = {
            traceOverhead(median(tracedWall), median(untracedWall)),
            "ratio"};
    }
    return res;
}

} // namespace perfbench
