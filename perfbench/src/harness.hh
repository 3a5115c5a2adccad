/**
 * @file
 * What every workload of the benchmark shares: the run options, the
 * output-check counter, the metric maps, the in-memory span recorder
 * and the statistics helpers (percentiles, ratios, digest).
 *
 * Spans are recorded only by the benchmark's own code, around each
 * public library call, so the library itself is measured unmodified.
 * Every call is timed with steady_clock whether or not tracing is on;
 * tracing only adds the span bookkeeping.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds since the process started (captured at static init). */
double secondsSinceStart();

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPUs this process may run on (what `nproc` prints). */
int availableCpus();

/**
 * Keeps single-threaded work on the quietest CPU.  On a shared host a
 * CPU whose core a busy neighbour shares runs the same code up to 1.5x
 * slower, for minutes at a time, while other CPUs stay undisturbed.
 * pin() times @p probe twice on each CPU the calling thread started
 * with and pins the thread to the fastest; the destructor restores the
 * starting mask, so later work may use every CPU again.
 */
class QuietCpu
{
  public:
    QuietCpu();
    ~QuietCpu();
    QuietCpu(const QuietCpu &) = delete;
    QuietCpu &operator=(const QuietCpu &) = delete;

    /** Pin to the CPU where @p probe ran fastest; returns it, or -1. */
    template <typename Fn>
    int pin(Fn &&probe);

  private:
    bool pinTo(int cpu);

    std::vector<int> cpus_;
    cpu_set_t startMask_;
    bool saved_ = false;
};

/** Peak resident set size of this process, in MiB (VmHWM). */
double peakRssMb();

/** How one workload run is driven. */
struct Options
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Threads handed to every library call that takes a count. */
    int threads = 1;
    /**
     * A probe is a short, fixed-size run of a workload inside another
     * workload's traced run; it supplies the per-layer metrics of the
     * layers that workload never calls.
     */
    bool probe = false;
};

/** Output checks: how many were attempted and how many failed. */
class Checks
{
  public:
    /** Count one check; report the first few failures on stderr. */
    void expect(bool ok, const std::string &what);

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

  private:
    long attempted_ = 0;
    long failed_ = 0;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What one workload run produced. */
struct WorkloadResult
{
    Metrics endToEnd;
    Metrics perLayer;
    /** Lines of the human-readable report (per-workload metric names). */
    std::vector<std::string> notes;
};

/** One recorded span: [start, end) in ns since process start. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;  //!< index of the enclosing span, -1 at top level
};

/**
 * In-memory span recorder.  Spans nest by call order: a span begun
 * while another is open becomes its child.  Nothing is written until
 * writeChromeTrace() at exit.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its index, or -1 when tracing is off. */
    int begin(const std::string &name);
    /** Close span @p id (no-op for -1). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as Chrome trace-event JSON (complete "X"
     * events, microsecond timestamps), which Perfetto and
     * chrome://tracing open offline.  Returns false on an I/O error.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** The process-wide recorder the workloads write to. */
Tracer &tracer();

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name)
        : id_(tracer().begin(name))
    {
    }
    ~ScopedSpan() { tracer().end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

/**
 * Run @p fn inside a span named @p name and return its wall time in
 * seconds (measured whether or not tracing is on).
 */
template <typename Fn>
double
timed(const std::string &name, Fn &&fn)
{
    ScopedSpan span(name);
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/**
 * Self time of every span: its duration minus the part of it that its
 * direct children cover (children may overlap each other; the union of
 * their intervals is subtracted).
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Self seconds summed per layer (the span-name prefix before '.'). */
std::map<std::string, double> layerSelfSeconds(
    const std::vector<Span> &spans);

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/** Nearest-rank percentile @p p (0..100] of @p v. */
double percentile(std::vector<double> v, double p);

/**
 * The time statistic every end-to-end rate and call time rests on:
 * the nearest-rank 25th percentile.  On a shared host the run's speed
 * switches, for seconds at a time, between an undisturbed level and
 * one up to twice as slow; the median jumps between the two with the
 * share of slow stretches, while the lower quartile stays on the
 * undisturbed level whenever a quarter of the run sees it.
 */
inline double
lowerQuartile(const std::vector<double> &v)
{
    return percentile(v, 25);
}

/** Samples strictly beyond the nearest-rank @p p percentile of n. */
size_t samplesBeyond(size_t n, double p);

/**
 * Smallest sample count whose @p p percentile leaves at least
 * @p tail samples beyond it (100 for p90 and a tail of 10).
 */
size_t samplesForTail(double p, size_t tail = 10);

/** nproc-thread throughput over nproc x the 1-thread throughput. */
double threadEfficiency(double wps_n, double wps_1, int n);

/** Traced wall over untraced wall, minus one. */
double traceOverhead(double traced_s, double untraced_s);

/**
 * FNV-1a digest of simulated outputs.  Doubles are hashed by value
 * (-0 folds to +0), so the digest repeats exactly whenever the
 * outputs do.  value() keeps 52 bits so JSON carries it exactly.
 */
class Digest
{
  public:
    void add(double x);
    void add(uint64_t x);
    void addBytes(std::span<const uint8_t> bytes);
    double value() const;
    uint64_t raw() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Runs the fixed-input checks of the helpers above; false on failure. */
bool selfTest();

template <typename Fn>
int
QuietCpu::pin(Fn &&probe)
{
    int best = -1;
    double bestS = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        for (const int cpu : cpus_) {
            if (!pinTo(cpu))
                return -1;
            const auto t0 = Clock::now();
            probe();
            const double s = secondsSince(t0);
            if (best < 0 || s < bestS)
                best = cpu, bestS = s;
        }
    }
    return best >= 0 && pinTo(best) ? best : -1;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
