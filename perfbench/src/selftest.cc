/**
 * @file
 * Fixed-input checks of the statistics helpers every metric rests on.
 * They run at the start of every benchmark run; a failure aborts the
 * run before anything is measured.
 */

#include <cmath>
#include <cstdio>

#include "harness.hh"

namespace perfbench
{

namespace
{

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

bool
check(bool ok, const char *what)
{
    if (!ok)
        std::fprintf(stderr, "self-test failed: %s\n", what);
    return ok;
}

} // namespace

bool
selfTest()
{
    bool ok = true;

    // Percentile choice: p90 of 100 samples leaves exactly 10 beyond,
    // 99 samples leave only 9, so a p90 needs at least 100 samples.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    ok &= check(percentile(v, 50) == 50.0, "p50 of 1..100");
    ok &= check(percentile(v, 90) == 90.0, "p90 of 1..100");
    ok &= check(median(v) == 50.5, "median of 1..100");
    ok &= check(samplesBeyond(100, 90) == 10, "10 beyond p90 of 100");
    ok &= check(samplesBeyond(99, 90) == 9, "9 beyond p90 of 99");
    ok &= check(samplesForTail(90) == 100, "p90 needs 100 samples");
    ok &= check(samplesForTail(99) == 1000, "p99 needs 1000 samples");
    ok &= check(samplesForTail(50) == 20, "p50 needs 20 samples");

    // Self time with nested and overlapping children: A holds B and C
    // (which overlap on [30, 40)), B holds D.
    std::vector<Span> spans(4);
    spans[0] = {"core.A", 0, 100, -1};
    spans[1] = {"quant.B", 10, 40, 0};
    spans[2] = {"pe.C", 30, 60, 0};
    spans[3] = {"quant.D", 15, 20, 1};
    const std::vector<double> self = selfSeconds(spans);
    ok &= check(near(self[0], 50e-9), "self(A) = 100 - |[10,60)|");
    ok &= check(near(self[1], 25e-9), "self(B) = 30 - 5");
    ok &= check(near(self[2], 30e-9), "self(C) has no children");
    ok &= check(near(self[3], 5e-9), "self(D) is a leaf");
    const auto layers = layerSelfSeconds(spans);
    ok &= check(near(layers.at("quant"), 30e-9), "quant = B + D");

    // Ratios with their bases.
    ok &= check(near(threadEfficiency(300.0, 100.0, 4), 0.75),
                "efficiency 300 / (4 x 100)");
    ok &= check(threadEfficiency(300.0, 0.0, 4) == 0.0,
                "efficiency without a 1-thread base");
    ok &= check(near(traceOverhead(1.25, 1.0), 0.25), "overhead 1.25/1");

    // Digest: pinned value, -0 == +0, order matters, 52-bit exact.
    Digest d;
    d.add(1.0);
    d.add(uint64_t{7});
    const uint8_t abc[3] = {'a', 'b', 'c'};
    d.addBytes(abc);
    // FNV-1a 64 over LE bytes of 1.0, of uint64 7, then "abc".
    ok &= check(d.raw() == 0x451736521a26d1b1ULL, "pinned digest");
    Digest pz, nz;
    pz.add(0.0);
    nz.add(-0.0);
    ok &= check(pz.raw() == nz.raw(), "digest folds -0 into +0");
    Digest ab, ba;
    ab.add(1.0);
    ab.add(2.0);
    ba.add(2.0);
    ba.add(1.0);
    ok &= check(ab.raw() != ba.raw(), "digest is order-sensitive");
    ok &= check(d.value() < 4503599627370496.0 &&
                    d.value() == std::floor(d.value()),
                "digest value is a 52-bit integer");
    return ok;
}

} // namespace perfbench
