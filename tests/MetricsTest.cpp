//===- tests/MetricsTest.cpp - Metrics registry and exposition ------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics-plane contracts: striped counters lose nothing under
/// contention, the registry hands back one instrument per series, the
/// Prometheus exposition round-trips through the strict parser, the
/// JSON exposition parses with the telemetry JSON parser, and the
/// legacy-Stats bridge keeps --stats and the exposition in agreement.
///
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "batch/BatchDivider.h"
#include "metrics/Exporter.h"
#include "metrics/Exposition.h"
#include "telemetry/Json.h"
#include "telemetry/Stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace gmdiv;
using namespace gmdiv::metrics;

namespace {

std::string uniqueName(const char *Stem) {
  static std::atomic<int> Serial{0};
  return std::string("gmdiv_test_") + Stem + "_" +
         std::to_string(Serial.fetch_add(1));
}

TEST(MetricsCounter, ExactUnderSixteenThreadContention) {
  Counter C;
  constexpr int NumThreads = 16;
  constexpr uint64_t PerThread = 100000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Threads)
    T.join();
  // Striped relaxed adds merge to the exact total: increments are never
  // lost, whatever stripe each thread landed on.
  EXPECT_EQ(C.value(), NumThreads * PerThread);
}

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("identity");
  Counter &A = R.counter(Name, "help text");
  Counter &B = R.counter(Name);
  EXPECT_EQ(&A, &B);
  // A different label set is a different series -> different instrument.
  Counter &Labeled = R.counter(Name, "", {{"shard", "0"}});
  EXPECT_NE(&A, &Labeled);
  A.add(3);
  Labeled.add(4);
  const Snapshot S = R.snapshot();
  EXPECT_EQ(S.valueOr(Name, {}, -1), 3.0);
  EXPECT_EQ(S.valueOr(Name, {{"shard", "0"}}, -1), 4.0);
  // Help is taken from the first registration.
  const Sample *Found = S.find(Name);
  ASSERT_NE(Found, nullptr);
}

/// gmdiv_batch_backend_selected_total{backend=<active>,source="divider"}.
double dividerSelections() {
  return Registry::global().snapshot().valueOr(
      "gmdiv_batch_backend_selected_total",
      {{"backend", batch::backendName(batch::activeBackend())},
       {"source", "divider"}},
      0.0);
}

/// \p PerThread BatchDivider<u32> and <u64> constructions on each of
/// \p Threads concurrent threads.
void constructBatchDividers(size_t Threads, size_t PerThread) {
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([PerThread] {
      for (size_t I = 0; I < PerThread; ++I) {
        const batch::BatchDivider<uint32_t> D32(static_cast<uint32_t>(3 + I));
        const batch::BatchDivider<uint64_t> D64(uint64_t{5} + I);
        EXPECT_EQ(D32.backend(), batch::activeBackend());
        EXPECT_EQ(D64.backend(), batch::activeBackend());
      }
    });
  for (std::thread &T : Pool)
    T.join();
}

TEST(MetricsRegistry, EveryBatchDividerConstructionCountsOnce) {
  // The constructor's counter is resolved once and cached; every
  // construction must still land exactly one increment, from one
  // thread and from four racing threads.
  constexpr size_t PerThread = 500;
  (void)batch::activeBackend(); // its own "autodetect" selection
  const double Before = dividerSelections();
  constructBatchDividers(1, PerThread);
  const double AfterOne = dividerSelections();
  EXPECT_EQ(AfterOne - Before, 2.0 * PerThread);
  constructBatchDividers(4, PerThread);
  EXPECT_EQ(dividerSelections() - AfterOne, 2.0 * 4 * PerThread);
}

TEST(MetricsGauge, LastValueWins) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.set(-0.25);
  EXPECT_EQ(G.value(), -0.25);
}

TEST(MetricsHistogram, CumulativeBucketsCoverEveryObservation) {
  Histogram H;
  const std::vector<uint64_t> Values = {0,  1,  2,   15,  16,  17,
                                        31, 32, 100, 1000, 123456};
  uint64_t Sum = 0;
  for (const uint64_t V : Values) {
    H.record(V);
    Sum += V;
  }
  EXPECT_EQ(H.count(), Values.size());
  EXPECT_EQ(H.sum(), Sum);

  const Histogram::Cumulative Cum = H.cumulative();
  EXPECT_EQ(Cum.Count, Values.size());
  ASSERT_FALSE(Cum.Bounds.empty());
  // Bounds ascend and counts are non-decreasing (cumulative).
  for (size_t I = 1; I < Cum.Bounds.size(); ++I) {
    EXPECT_LT(Cum.Bounds[I - 1].first, Cum.Bounds[I].first);
    EXPECT_LE(Cum.Bounds[I - 1].second, Cum.Bounds[I].second);
  }
  // The last emitted bound covers every observation, and each bound's
  // count matches a direct recount of values <= the bound.
  EXPECT_EQ(Cum.Bounds.back().second, Values.size());
  for (const auto &[Le, CountAtLe] : Cum.Bounds) {
    uint64_t Expect = 0;
    for (const uint64_t V : Values)
      if (static_cast<double>(V) <= Le)
        ++Expect;
    EXPECT_EQ(CountAtLe, Expect) << "le=" << Le;
  }
}

TEST(MetricsExposition, PrometheusTextRoundTripsThroughStrictParser) {
  Registry &R = Registry::global();
  const std::string CName = uniqueName("roundtrip_total");
  const std::string GName = uniqueName("occupancy");
  const std::string HName = uniqueName("latency_ns");
  // A label value exercising every escape the format defines.
  const LabelSet Tricky = {{"path", "a\\b\"c\nd"}, {"shard", "3"}};
  R.counter(CName, "Round-trip counter", Tricky).add(42);
  R.gauge(GName, "Round-trip gauge").set(0.5);
  Histogram &H = R.histogram(HName, "Round-trip histogram");
  for (uint64_t V : {1u, 10u, 100u, 1000u})
    H.record(V);

  const std::string Text = prometheusText(R.snapshot());
  std::vector<ParsedSample> Parsed;
  std::string Error;
  ASSERT_TRUE(parsePrometheusText(Text, Parsed, &Error))
      << Error << "\n"
      << Text;

  const ParsedSample *C = findSample(Parsed, CName, Tricky);
  ASSERT_NE(C, nullptr) << Text;
  EXPECT_EQ(C->Value, 42.0);
  const ParsedSample *G = findSample(Parsed, GName);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->Value, 0.5);
  // Histogram expansion: _count and _sum agree with the instrument,
  // +Inf bucket present and equal to _count, bucket counts cumulative.
  const ParsedSample *HCount = findSample(Parsed, HName + "_count");
  ASSERT_NE(HCount, nullptr);
  EXPECT_EQ(HCount->Value, 4.0);
  const ParsedSample *HSum = findSample(Parsed, HName + "_sum");
  ASSERT_NE(HSum, nullptr);
  EXPECT_EQ(HSum->Value, 1111.0);
  const ParsedSample *Inf =
      findSample(Parsed, HName + "_bucket", {{"le", "+Inf"}});
  ASSERT_NE(Inf, nullptr);
  EXPECT_EQ(Inf->Value, 4.0);
  double Prev = 0;
  for (const ParsedSample &Sample : Parsed) {
    if (Sample.Name != HName + "_bucket")
      continue;
    EXPECT_GE(Sample.Value, Prev) << "buckets must be cumulative";
    Prev = Sample.Value;
  }
}

TEST(MetricsExposition, JsonSnapshotParsesWithTelemetryJsonParser) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("json_total");
  R.counter(Name, "JSON exposition check").add(7);
  const std::string Doc = snapshotJson(R.snapshot());
  ASSERT_TRUE(telemetry::json::isValid(Doc));
  telemetry::json::Value Root;
  ASSERT_TRUE(telemetry::json::parse(Doc, Root));
  EXPECT_EQ(Root.numberOr("gmdiv_metrics", 0), 1.0);
  EXPECT_GT(Root.numberOr("unix_ms", 0), 0.0);
  const telemetry::json::Value *Families = Root.find("families");
  ASSERT_NE(Families, nullptr);
  bool Found = false;
  for (const telemetry::json::Value &F : Families->array()) {
    if (F.stringOr("name", "") != Name)
      continue;
    Found = true;
    EXPECT_EQ(F.stringOr("kind", ""), "counter");
    const telemetry::json::Value *Samples = F.find("samples");
    ASSERT_NE(Samples, nullptr);
    ASSERT_EQ(Samples->array().size(), 1u);
    EXPECT_EQ(Samples->array()[0].numberOr("value", -1), 7.0);
  }
  EXPECT_TRUE(Found) << Doc;
}

TEST(MetricsBridge, LegacyStatsAppearAndNativeSeriesShadowThem) {
#ifdef GMDIV_NO_TELEMETRY
  GTEST_SKIP() << "stats compiled out";
#endif
  Registry &R = Registry::global();
  {
    telemetry::Statistic Stat("metricstest", "bridged");
    Stat.increment(11);
    const Snapshot S = R.snapshot();
    // The bridge renders group.name as gmdiv_<group>_<name>_total.
    EXPECT_EQ(S.valueOr("gmdiv_metricstest_bridged_total", {}, -1), 11.0)
        << "--stats and the exposition must agree";
  }
  // A native instrument that reuses a bridged family name wins the
  // series (first-writer dedupe: instruments merge before bridges), so
  // the two surfaces cannot diverge even if both exist.
  telemetry::Statistic Stat("metricstest", "shadowed");
  Stat.increment(100);
  const std::string Native = "gmdiv_metricstest_shadowed_total";
  R.counter(Native, "native twin").add(3);
  EXPECT_EQ(Registry::global().snapshot().valueOr(Native, {}, -1), 3.0);
}

TEST(MetricsBridge, LatencyHistogramsBecomeSummaries) {
#ifdef GMDIV_NO_TELEMETRY
  GTEST_SKIP() << "histograms compiled out";
#endif
  telemetry::LatencyHistogram Lat("metricstest", "bridge_us");
  for (uint64_t V = 1; V <= 100; ++V)
    Lat.record(V);
  const Snapshot S = Registry::global().snapshot();
  const Sample *Sum = S.find("gmdiv_metricstest_bridge_us");
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(Sum->Count, 100u);
  ASSERT_FALSE(Sum->Quantiles.empty());
  for (const auto &[Q, V] : Sum->Quantiles) {
    EXPECT_GE(Q, 0.0);
    EXPECT_LE(Q, 1.0);
    EXPECT_GE(V, 1.0);
  }
}

TEST(MetricsCollector, RunsAtSnapshotAndUnregisters) {
  Registry &R = Registry::global();
  const std::string Name = uniqueName("collected");
  const uint64_t Handle = R.addCollector([&](SnapshotBuilder &B) {
    B.gauge(Name, "from a collector", {}, 17.0);
  });
  EXPECT_EQ(R.snapshot().valueOr(Name, {}, -1), 17.0);
  R.removeCollector(Handle);
  EXPECT_EQ(R.snapshot().valueOr(Name, {}, -1), -1.0);
}

TEST(MetricsSnapshotBuilder, FirstWriterWinsOnDuplicateSeries) {
  SnapshotBuilder B;
  B.counter("dup_total", "first", {}, 1.0);
  B.counter("dup_total", "second", {}, 2.0);
  const Snapshot S = B.take();
  const Sample *Found = S.find("dup_total");
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->Value, 1.0);
  ASSERT_EQ(S.Families.size(), 1u);
  EXPECT_EQ(S.Families[0].Samples.size(), 1u);
}

TEST(MetricsExporter, WriteSnapshotFileEmitsBothFormats) {
  Registry::global().counter(uniqueName("exported_total")).inc();

  const std::string PromPath =
      testing::TempDir() + "gmdiv_metrics_test.prom";
  std::string Error;
  ASSERT_TRUE(Exporter::writeSnapshotFile(PromPath, &Error)) << Error;
  std::ifstream PromIn(PromPath);
  std::stringstream PromBuf;
  PromBuf << PromIn.rdbuf();
  std::vector<ParsedSample> Parsed;
  EXPECT_TRUE(parsePrometheusText(PromBuf.str(), Parsed, &Error))
      << Error;
  EXPECT_FALSE(Parsed.empty());

  const std::string JsonPath =
      testing::TempDir() + "gmdiv_metrics_test.json";
  ASSERT_TRUE(Exporter::writeSnapshotFile(JsonPath, &Error)) << Error;
  std::ifstream JsonIn(JsonPath);
  std::stringstream JsonBuf;
  JsonBuf << JsonIn.rdbuf();
  telemetry::json::Value Root;
  EXPECT_TRUE(telemetry::json::parse(JsonBuf.str(), Root));
  EXPECT_EQ(Root.numberOr("gmdiv_metrics", 0), 1.0);

  std::remove(PromPath.c_str());
  std::remove(JsonPath.c_str());
}

namespace {
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
} // namespace

TEST(MetricsExporter, AtomicRenameReplacesAnExistingDestination) {
  Registry::global().counter(uniqueName("replace_total")).inc();
  const std::string Path =
      testing::TempDir() + "gmdiv_metrics_replace.prom";
  {
    std::ofstream Out(Path);
    Out << "STALE CONTENT A SCRAPER MUST NEVER SEE TORN\n";
  }
  std::string Error;
  ASSERT_TRUE(Exporter::writeSnapshotFile(Path, &Error)) << Error;
  // Fully replaced: the new content is a valid exposition with no trace
  // of the old bytes, and the temp file did not linger.
  const std::string Body = slurp(Path);
  EXPECT_EQ(Body.find("STALE CONTENT"), std::string::npos);
  std::vector<ParsedSample> Parsed;
  EXPECT_TRUE(parsePrometheusText(Body, Parsed, &Error)) << Error;
  EXPECT_FALSE(Parsed.empty());
  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good()) << "temp file must not survive the rename";
  std::remove(Path.c_str());
}

TEST(MetricsExporter, UnwritableParentFailsWithoutPartialSnapshot) {
  // A regular file where the parent directory should be makes every
  // temp-file open fail with ENOTDIR — an "unwritable parent" that
  // works even when the suite runs as root (chmod is advisory then).
  const std::string Parent =
      testing::TempDir() + "gmdiv_metrics_notadir";
  std::remove(Parent.c_str());
  {
    std::ofstream Out(Parent);
    Out << "occupies the parent path\n";
  }
  const std::string Dest = Parent + "/metrics.prom";
  std::string Error;
  EXPECT_FALSE(Exporter::writeSnapshotFile(Dest, &Error));
  EXPECT_FALSE(Error.empty());
  // The placeholder parent is untouched and no partial output appeared.
  EXPECT_EQ(slurp(Parent), "occupies the parent path\n");
  std::remove(Parent.c_str());

#ifdef __unix__
  // The classic chmod-based variant only means anything unprivileged:
  // root bypasses directory write bits entirely.
  if (geteuid() != 0) {
    const std::string Dir = testing::TempDir() + "gmdiv_metrics_rodir";
    ASSERT_EQ(mkdir(Dir.c_str(), 0755), 0);
    const std::string RoDest = Dir + "/metrics.prom";
    {
      std::ofstream Out(RoDest);
      Out << "previous snapshot\n";
    }
    ASSERT_EQ(chmod(Dir.c_str(), 0555), 0);
    Error.clear();
    EXPECT_FALSE(Exporter::writeSnapshotFile(RoDest, &Error));
    EXPECT_FALSE(Error.empty());
    // Graceful failure: the existing snapshot survives intact and no
    // .tmp litters the directory.
    EXPECT_EQ(slurp(RoDest), "previous snapshot\n");
    std::ifstream Tmp(RoDest + ".tmp");
    EXPECT_FALSE(Tmp.good());
    ASSERT_EQ(chmod(Dir.c_str(), 0755), 0);
    std::remove(RoDest.c_str());
    rmdir(Dir.c_str());
  }
#endif
}

TEST(MetricsExposition, ParserRejectsMalformedExpositions) {
  std::vector<ParsedSample> Out;
  // Bad metric name, unescaped quote, duplicate series, TYPE after a
  // sample, garbage value.
  for (const char *Bad :
       {"0bad_name 1\n", "ok{l=\"a\"b\"} 1\n",
        "dup 1\ndup 2\n",
        "ok 1\n# TYPE ok counter\n",
        "ok notanumber\n"}) {
    Out.clear();
    EXPECT_FALSE(parsePrometheusText(Bad, Out)) << Bad;
  }
  // The empty exposition is trivially valid.
  Out.clear();
  EXPECT_TRUE(parsePrometheusText("", Out));
  EXPECT_TRUE(Out.empty());
}

} // namespace
