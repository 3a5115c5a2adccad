/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * Runs one workload (layer_pipeline, serve_capacity, design_sweep) for
 * about S seconds of measurement, checks its outputs, prints a
 * human-readable report and, as the last line, one JSON object with
 * the keys correct / attempted / failed / metrics.  With --trace 0 the
 * metrics are the end-to-end catalogue, measured untraced; with
 * --trace 1 they are the per-layer catalogue from a traced run, whose
 * spans are written to FILE as Chrome trace-event JSON.
 *
 * Every library call that takes a thread count gets the number of CPUs
 * this process may use.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},          {"peak_rss_mb", "MB"},
        {"work_per_s", "1/s"},     {"stress_per_s", "1/s"},
        {"call_ms_p25", "ms"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"quant.quantize_wps", "w/s"},
        {"quant.quantize_thread_efficiency", "ratio"},
        {"quant.pack_wps", "w/s"},
        {"rel.protect_wps", "w/s"},
        {"rel.protection_overhead", "ratio"},
        {"mem.compress_wps", "w/s"},
        {"mem.weight_ratio", "ratio"},
        {"pe.gemv_1t_wps", "w/s"},
        {"pe.gemv_thread_efficiency", "ratio"},
        {"pe.checked_gemv_s", "s"},
        {"pe.checked_over_trusted", "ratio"},
        {"accel.measure_profile_s", "s"},
        {"accel.profile_hits", "count"},
        {"accel.profile_misses", "count"},
        {"accel.select_precision_ms", "ms"},
        {"accel.run_us", "us"},
        {"accel.sharded_run_us", "us"},
        {"core.deploy_ms", "ms"},
        {"accel.step_cost_ns", "ns"},
        {"serve.poisson_steps", "count"},
        {"serve.burst_steps", "count"},
        {"serve.poisson_ns_per_step", "ns"},
        {"serve.burst_ns_per_step", "ns"},
        {"serve.poisson_self_ns_per_step", "ns"},
        {"serve.burst_self_ns_per_step", "ns"},
        {"serve.peak_queue_depth", "count"},
        {"serve.mean_batch_occupancy", "count"},
        {"trace.overhead", "ratio"},
        {"sim.outputs_digest", "count"},
        {"sim.poisson_ttft_p99_ms", "ms"},
        {"sim.bitmod_decode_speedup_geomean", "ratio"},
    };
    return specs;
}

} // namespace perfbench

namespace
{

using RunFn = WorkloadResult (*)(const Options &, Checks &);

struct WorkloadEntry
{
    const char *name;
    RunFn run;
};

const WorkloadEntry kWorkloads[] = {
    {"layer_pipeline", runLayerPipeline},
    {"serve_capacity", runServeCapacity},
    {"design_sweep", runDesignSweep},
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload {layer_pipeline|serve_capacity|"
                 "design_sweep} --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv0);
    std::exit(2);
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

/** One JSON metrics object, every value with all its digits. */
std::string
metricsJson(const Metrics &m, const std::vector<MetricSpec> &specs)
{
    std::string out = "{";
    for (const MetricSpec &spec : specs) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      out.size() > 1 ? ", " : "", spec.name,
                      m.at(spec.name).value, spec.unit);
        out += buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    double seed = -1, seconds = -1, trace = -1;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string arg = argv[i];
        const char *val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--trace-out")
            traceOut = val;
        else if (arg == "--seed")
            ok = parseNumber(val, seed) && seed >= 0;
        else if (arg == "--seconds")
            ok = parseNumber(val, seconds) && seconds > 0;
        else if (arg == "--trace")
            ok = parseNumber(val, trace) && (trace == 0 || trace == 1);
        else
            ok = false;
        if (!ok)
            usage(argv[0]);
    }

    if (!selfTest())
        return 1;

    RunFn run = nullptr;
    for (const WorkloadEntry &w : kWorkloads)
        if (workload == w.name)
            run = w.run;
    if (!run || seed < 0 || seconds < 0 || trace < 0)
        usage(argv[0]);

    Options o;
    o.seed = static_cast<uint64_t>(seed);
    o.seconds = seconds;
    o.trace = trace == 1;
    o.threads = availableCpus();

    Checks checks;
    WorkloadResult res = run(o, checks);

    const std::vector<MetricSpec> &specs =
        o.trace ? perLayerMetrics() : endToEndMetrics();
    // The span file and the self times cover this workload's own calls:
    // both are taken before the probes below record theirs.
    std::map<std::string, double> selfTime;
    size_t spanCount = 0;
    if (o.trace) {
        selfTime = layerSelfSeconds(tracer().spans());
        spanCount = tracer().spans().size();
        if (!traceOut.empty() && !tracer().writeChromeTrace(traceOut)) {
            std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
            return 1;
        }
        // Layers this workload never calls are measured by short probe
        // runs of the workloads that do, so every metric is defined.
        Options probe = o;
        probe.probe = true;
        for (const WorkloadEntry &w : kWorkloads) {
            if (w.run == run)
                continue;
            const WorkloadResult pr = w.run(probe, checks);
            for (const auto &[name, metric] : pr.perLayer)
                res.perLayer.emplace(name, metric);
        }
    }

    std::printf("workload %s, seed %llu, %d threads, %s\n",
                workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.threads, o.trace ? "traced" : "untraced");
    for (const std::string &note : res.notes)
        std::printf("  %s\n", note.c_str());
    const Metrics &m = o.trace ? res.perLayer : res.endToEnd;
    for (const MetricSpec &spec : specs) {
        const auto it = m.find(spec.name);
        if (it == m.end() || it->second.unit != spec.unit) {
            std::fprintf(stderr, "metric %s missing or mis-united\n",
                         spec.name);
            return 2;
        }
        std::printf("  %-36s %14.6g %s\n", spec.name, it->second.value,
                    spec.unit);
    }
    const double errorRate =
        checks.attempted() > 0
            ? double(checks.failed()) / double(checks.attempted())
            : 1.0;
    std::printf("  %-36s %14.6g (%ld of %ld checks failed)\n",
                "op_error_rate", errorRate, checks.failed(),
                checks.attempted());

    if (o.trace) {
        std::printf("  self time per layer (s):");
        for (const auto &[layer, s] : selfTime)
            std::printf(" %s=%.4f", layer.c_str(), s);
        std::printf("\n");
        if (!traceOut.empty())
            std::printf("  spans: %zu written to %s\n", spanCount,
                        traceOut.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                               : "false",
                std::max(1L, checks.attempted()), checks.failed(),
                metricsJson(m, specs).c_str());
    return 0;
}
