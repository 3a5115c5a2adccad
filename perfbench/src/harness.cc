#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench
{

namespace
{

const Clock::time_point kProcessStart = Clock::now();

int64_t
nsSinceStart()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

/** JSON string body with quotes and control characters escaped. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

double
secondsSinceStart()
{
    return secondsSince(kProcessStart);
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

QuietCpu::QuietCpu()
{
    CPU_ZERO(&startMask_);
    saved_ = sched_getaffinity(0, sizeof(startMask_), &startMask_) == 0;
    for (int c = 0; saved_ && c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &startMask_))
            cpus_.push_back(c);
}

QuietCpu::~QuietCpu()
{
    if (saved_)
        sched_setaffinity(0, sizeof(startMask_), &startMask_);
}

bool
QuietCpu::pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
    return 0.0;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failed_ <= 10)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

// ---------------------------------------------------------------- tracing

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.startNs = nsSinceStart();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[id].endNs = nsSinceStart();
    // Spans close in LIFO order (ScopedSpan); pop through to @p id.
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i == 0 ? "" : ",", jsonEscape(s.name).c_str(),
                     jsonEscape(layer).c_str(), s.startNs / 1e3,
                     (s.endNs - s.startNs) / 1e3, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.startNs, s.endNs);

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curLo = 0, curHi = -1;
        for (const auto &[lo0, hi0] : iv) {
            const int64_t lo = std::max(lo0, spans[i].startNs);
            const int64_t hi = std::min(hi0, spans[i].endNs);
            if (hi <= lo)
                continue;
            if (lo > curHi) {
                if (curHi > curLo)
                    covered += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        if (curHi > curLo)
            covered += curHi - curLo;
        self[i] = (spans[i].endNs - spans[i].startNs - covered) * 1e-9;
    }
    return self;
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> byLayer;
    for (size_t i = 0; i < spans.size(); ++i)
        byLayer[spans[i].name.substr(0, spans[i].name.find('.'))] +=
            self[i];
    return byLayer;
}

// ------------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * v.size());
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

size_t
samplesBeyond(size_t n, double p)
{
    const double rank = std::ceil(p / 100.0 * n);
    return n - std::min(n, static_cast<size_t>(rank));
}

size_t
samplesForTail(double p, size_t tail)
{
    size_t n = 1;
    while (samplesBeyond(n, p) < tail)
        ++n;
    return n;
}

double
threadEfficiency(double wps_n, double wps_1, int n)
{
    return wps_1 > 0.0 && n > 0 ? wps_n / (n * wps_1) : 0.0;
}

double
traceOverhead(double traced_s, double untraced_s)
{
    return untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
}

void
Digest::add(uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (x >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double x)
{
    if (x == 0.0)
        x = 0.0;  // fold -0 into +0
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    add(bits);
}

void
Digest::addBytes(std::span<const uint8_t> bytes)
{
    for (const uint8_t b : bytes) {
        h_ ^= b;
        h_ *= 0x100000001b3ULL;
    }
}

double
Digest::value() const
{
    return static_cast<double>(h_ & ((1ULL << 52) - 1));
}

} // namespace perfbench
