// Tests of the benchmark's output checks: each check passes a correct
// output and rejects a deliberately wrong one. Run with
// `python3 perfbench/run.py --self-test` (or the built binary directly);
// exits non-zero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "core/catalog.h"
#include "core/engine.h"
#include "video/datasets.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void ExpectPass(const std::string& why, const char* what) {
  if (!why.empty()) std::printf("     (%s)\n", why.c_str());
  Expect(why.empty(), what);
}

void ExpectReject(const std::string& why, const char* what) {
  Expect(!why.empty(), what);
}

void AggregateChecks() {
  const double eps = 0.1;
  ExpectPass(CheckAggregate(1.05, 1.0, eps, 1.0), "aggregate within eps");
  ExpectPass(CheckAggregate(1.19, 1.0, eps, 1.0), "aggregate within 2 eps");
  ExpectReject(CheckAggregate(1.0 + 3 * eps, 1.0, eps, 1.0),
               "aggregate 3 eps off");
  ExpectReject(CheckAggregate(1.0 - 3 * eps, 1.0, eps, 1.0),
               "aggregate 3 eps low");
  // COUNT(*) scales the tolerance by the window's frame count.
  ExpectPass(CheckAggregate(1500.0 + 150.0, 1500.0, eps, 1000.0),
             "COUNT(*) within scaled 2 eps");
  ExpectReject(CheckAggregate(1500.0 + 300.0, 1500.0, eps, 1000.0),
               "COUNT(*) 3 eps off");
}

void ScrubChecks() {
  // Matches at 10, 20, 30, 100, 200, 300 in a 400-frame day.
  std::vector<char> match(400, 0);
  for (int f : {10, 20, 30, 100, 200, 300}) match[f] = 1;
  ExpectPass(CheckScrub({100, 200, 10}, match, 0, 400, 3, 50),
             "scrub: LIMIT gap-separated matches");
  ExpectReject(CheckScrub({100, 200, 11}, match, 0, 400, 3, 50),
               "scrub: frame that does not match");
  ExpectReject(CheckScrub({100, 200, 20, 10}, match, 0, 400, 4, 15),
               "scrub: frames closer than GAP");
  ExpectReject(CheckScrub({100, 200}, match, 0, 400, 3, 50),
               "scrub: fewer than LIMIT though the labels hold enough");
  ExpectPass(CheckScrub({100, 200}, match, 50, 250, 3, 50),
             "scrub: fewer than LIMIT when the window holds only two");
  ExpectReject(CheckScrub({10, 100}, match, 50, 250, 3, 50),
               "scrub: frame outside the window");
  ExpectReject(CheckScrub({10, 100, 200, 300}, match, 0, 400, 3, 50),
               "scrub: more than LIMIT");
  Expect(MaxSeparatedMatches(match, 0, 400, 50) == 4,
         "max gap-separated matches");
}

void FullScanChecks() {
  const std::vector<int64_t> want = {3, 5, 8};
  ExpectPass(CheckExactFrames({8, 3, 5}, want), "full scan: exact set");
  ExpectReject(CheckExactFrames({3, 8}, want), "full scan: frame dropped");
  ExpectReject(CheckExactFrames({3, 5, 6, 8}, want),
               "full scan: frame added");
  ExpectReject(CheckExactFrames({3, 5, 9}, want), "full scan: frame swapped");
}

void BinaryChecks() {
  std::vector<char> positive(1000, 0);
  for (int f = 100; f < 200; ++f) positive[f] = 1;
  std::vector<int64_t> all;
  for (int64_t f = 100; f < 200; ++f) all.push_back(f);
  ExpectPass(CheckBinary(all, positive, 0, 1000, 0.01, 0.01),
             "binary: every positive");
  std::vector<int64_t> half(all.begin(), all.begin() + 50);
  ExpectReject(CheckBinary(half, positive, 0, 1000, 0.01, 0.01),
               "binary: FNR far over target");
  std::vector<int64_t> noisy = all;
  for (int64_t f = 300; f < 400; ++f) noisy.push_back(f);
  ExpectReject(CheckBinary(noisy, positive, 0, 1000, 0.01, 0.01),
               "binary: FPR far over target");
  ExpectReject(CheckBinary(all, positive, 150, 1000, 0.01, 0.01),
               "binary: frame outside the window");
}

void CountDistinctChecks() {
  ExpectPass(CheckCountDistinct(110.0, 100), "count-distinct within tolerance");
  ExpectReject(CheckCountDistinct(200.0, 100), "count-distinct far off");
}

blazeit::QueryOutput SampleOutput() {
  blazeit::QueryOutput out;
  out.kind = blazeit::QueryKind::kSelection;
  out.plan = blazeit::PlanKind::kFilteredSelection;
  out.scalar = 0.25;
  out.frames = {1, 2, 3};
  blazeit::SelectionRow row;
  row.frame = 2;
  row.detection.class_id = blazeit::kBus;
  row.detection.rect = blazeit::Rect{0.5, 0.6, 0.8, 0.9};
  row.detection.score = 0.9;
  out.rows = {row};
  out.cost.ChargeDetection();
  out.cost.ChargeSpecializedNN(10);
  return out;
}

void IdentityChecks() {
  const blazeit::QueryOutput want = SampleOutput();
  ExpectPass(CheckIdentical(SampleOutput(), want), "served == serial");
  blazeit::QueryOutput got = SampleOutput();
  got.scalar = 0.25000000000000006;
  ExpectReject(CheckIdentical(got, want), "served scalar off by one ulp");
  got = SampleOutput();
  got.frames.pop_back();
  ExpectReject(CheckIdentical(got, want), "served frames differ");
  got = SampleOutput();
  got.rows[0].detection.rect.xmax = 0.81;
  ExpectReject(CheckIdentical(got, want), "served row differs");
  got = SampleOutput();
  got.cost.ChargeDetection();
  ExpectReject(CheckIdentical(got, want), "served cost differs");
  ExpectPass(CheckSameAnswer(got, want), "same answer ignores cost");
}

/// End to end through CheckQueryOutput on a small real catalog.
void CatalogChecks() {
  blazeit::VideoCatalog catalog;
  blazeit::DayLengths days;
  days.train = 600;
  days.held_out = 600;
  days.test = 1800;
  if (!catalog.AddStream(blazeit::TaipeiConfig(), days).ok()) {
    Expect(false, "small taipei catalog");
    return;
  }
  blazeit::BlazeItEngine engine(&catalog);
  const std::string scan =
      "SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 10 "
      "AND timestamp < 40";
  auto out = engine.Execute(scan);
  Expect(out.ok(), "small full scan runs");
  if (!out.ok()) return;
  ExpectPass(CheckQueryOutput(&catalog, scan, out.value(), engine.udfs()),
             "full scan output passes");
  blazeit::QueryOutput wrong = out.value();
  if (!wrong.frames.empty()) wrong.frames.pop_back();
  wrong.frames.push_back(5);  // outside the window
  ExpectReject(CheckQueryOutput(&catalog, scan, wrong, engine.udfs()),
               "full scan with a dropped and an added frame");

  const std::string selection =
      "SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 0.2 "
      "AND area(mask) > 20000";
  auto sel = engine.Execute(selection);
  Expect(sel.ok(), "small selection runs");
  if (!sel.ok()) return;
  ExpectPass(CheckQueryOutput(&catalog, selection, sel.value(), engine.udfs()),
             "selection rows pass");
  blazeit::QueryOutput bad = sel.value();
  blazeit::SelectionRow row;
  row.frame = 0;
  row.detection.class_id = blazeit::kCar;
  bad.rows.push_back(row);
  ExpectReject(CheckQueryOutput(&catalog, selection, bad, engine.udfs()),
               "selection row of the wrong class");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::AggregateChecks();
  perfbench::ScrubChecks();
  perfbench::FullScanChecks();
  perfbench::BinaryChecks();
  perfbench::CountDistinctChecks();
  perfbench::IdentityChecks();
  perfbench::CatalogChecks();
  std::printf("%d failed\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
