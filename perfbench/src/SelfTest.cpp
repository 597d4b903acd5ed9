//===- perfbench/src/SelfTest.cpp - The benchmark's own checks ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Checks the benchmark itself: a seed reproduces its request stream and
// another seed changes it, and the percentile, residual and Zipf
// arithmetic gives known answers on fixed inputs.
//
//===----------------------------------------------------------------------===//

#include "SelfTest.h"

#include "Common.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace perfbench {
namespace {

struct Checker {
  bool Verbose;
  int Failures = 0;
  void expect(bool Ok, const char *What) {
    if (Verbose || !Ok)
      std::printf("self-test: %-58s %s\n", What, Ok ? "ok" : "FAILED");
    Failures += !Ok;
  }
  void near(double Got, double Want, const char *What) {
    const bool Ok =
        std::fabs(Got - Want) <= 1e-9 * std::fmax(1.0, std::fabs(Want));
    if (!Ok)
      std::printf("self-test: %s: got %.17g, want %.17g\n", What, Got, Want);
    expect(Ok, What);
  }
};

} // namespace

int runArithmeticSelfTests(bool Verbose) {
  Checker C{Verbose};
  std::vector<double> Hundred;
  for (int I = 1; I <= 100; ++I)
    Hundred.push_back(I);
  C.near(percentileSorted(Hundred, 0.5), 50.5, "p50 of 1..100 is 50.5");
  C.near(percentileSorted(Hundred, 0.99), 99.01, "p99 of 1..100 is 99.01");
  C.near(percentileSorted(Hundred, 0.0), 1, "p0 of 1..100 is 1");
  C.near(percentileSorted(Hundred, 1.0), 100, "p100 of 1..100 is 100");
  const std::vector<double> One = {7.25};
  C.near(percentileSorted(One, 0.99), 7.25, "p99 of one sample is the sample");
  C.near(median({3, 1, 2, 10}), 2.5, "median of {3,1,2,10} is 2.5");
  LatencyHistogram H;
  for (int I = 1; I <= 100; ++I)
    H.add(static_cast<uint64_t>(I));
  C.near(H.quantileNs(0.5), 50.5, "histogram p50 of 1..100 ns is 50.5");
  C.near(H.quantileNs(0.99), 99.01, "histogram p99 of 1..100 ns is 99.01");
  LatencyHistogram Wide;
  for (int I = 0; I < 1000; ++I)
    Wide.add(1000000); // 1 ms: a bucket 4096 ns wide starting at 999424
  const double P50 = Wide.quantileNs(0.5);
  C.expect(P50 >= 999424 && P50 < 999424 + 4096,
           "histogram p50 of 1000 x 1 ms lies in the 1 ms bucket");
  // Windowed: the slow window of three (10x, the host stole from it)
  // does not reach the steady figure.
  WindowedLatency WL(3);
  for (size_t W = 0; W < 3; ++W)
    for (uint64_t I = 0; I < WindowedLatency::MinWindowSamples; ++I)
      WL.add(W, W == 1 ? 1000 : 100);
  const double P99 = WL.quantileNs(0.99, {0.0, 0.5, 0.0});
  C.expect(P99 >= 100 && P99 < 101, "windowed p99 ignores one stolen window");
  C.near(steadyQuantile({10, 40, 20, 30}, {0, 0, 0, 0}, 0.5), 25,
         "steady median without steal is the median");
  C.near(steadyQuantile({10, 40, 20, 30}, {0, 0, 0, 0}, 0.75), 32.5,
         "steady slow quartile of latencies {10,20,30,40} is 32.5");
  C.near(steadyQuantile({10, 40, 20, 30, 50}, {0.3, 0.1, 0.2, 0.4, 0.1}, 0.5),
         45, "steady median keeps the least-stolen quarter {40, 50}");
  C.near(steadyQuantile({10, 40, 20, 30, 50}, {0, 0, 0.2, 0, 0.1}, 0.5), 30,
         "steady median keeps every steal-free window {10, 40, 30}");
  C.near(steadyQuantile({10, 0, 20, 30}, {0.2, 0, 0.2, 0.4}, 0.5), 15,
         "steady median skips windows without data");
  C.near(steadySetupSeconds({{1.0, 1.0}, {5.0, 1.0}, {1.2, 1.2}}), 1.1,
         "setup_s drops the set-up that waited 4 s off the CPU");
  C.near(residual(40.0, {12.5, 20.0}), 7.5, "residual 40 - (12.5 + 20) is 7.5");
  C.near(residual(1.0, {0.25, 1.0}), -0.25, "residual may be negative");

  // Zipf(1) over 4 ranks: P(rank 0) = 1 / H(4) = 12/25.
  ZipfSampler Z(4, 1.0);
  Rng R(42);
  size_t Rank0 = 0;
  const size_t Draws = 400000;
  for (size_t I = 0; I < Draws; ++I)
    Rank0 += Z.draw(R) == 0;
  const double Share = static_cast<double>(Rank0) / Draws;
  C.expect(std::fabs(Share - 0.48) < 0.005,
           "Zipf(1) over 4 ranks: rank 0 has 48%");

  Rng A(streamSeed(1, 9)), B(streamSeed(1, 9)), D(streamSeed(2, 9));
  const uint64_t A0 = A.next();
  C.expect(A0 == B.next() && A0 != D.next(),
           "stream seeds: same seed same draw");
  return C.Failures;
}

int runStreamSelfTests() {
  Checker C{true};
  for (const char *Name : {"router", "batch", "churn"}) {
    const uint64_t First = makeWorkload(Name, 1)->fingerprint(64);
    const uint64_t Again = makeWorkload(Name, 1)->fingerprint(64);
    const uint64_t Other = makeWorkload(Name, 2)->fingerprint(64);
    char What[96];
    std::snprintf(What, sizeof(What), "%s: seed 1 reproduces its stream", Name);
    C.expect(First == Again, What);
    std::snprintf(What, sizeof(What), "%s: seed 2 changes the stream", Name);
    C.expect(First != Other, What);
  }
  return C.Failures;
}

} // namespace perfbench
