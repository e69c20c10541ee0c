#include "mix.h"

#include <cstdio>
#include <utility>

#include "video/datasets.h"

namespace perfbench {

namespace {

/// SplitMix64: a fixed, platform-independent generator, so one seed gives
/// the same FrameQL text everywhere.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed ^ 0x6a09e667f3bcc909ull) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }

  /// One of `values`.
  template <typename T>
  T Pick(const std::vector<T>& values) {
    return values[static_cast<size_t>(Int(0, static_cast<int64_t>(
                                                 values.size()) - 1))];
  }

  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      std::swap((*values)[i - 1],
                (*values)[static_cast<size_t>(Int(0, static_cast<int64_t>(
                                                         i) - 1))]);
    }
  }

 private:
  uint64_t state_;
};

std::string Fmt(const char* format, double a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

/// `AND timestamp >= a AND timestamp < b` over a window of `length_s`
/// seconds placed at a seeded whole-second offset inside a day of
/// `day_s` seconds.
std::string Window(SeedStream* rng, int64_t day_s, int64_t length_s) {
  const int64_t begin = rng->Int(0, day_s - length_s);
  return "timestamp >= " + std::to_string(begin) +
         " AND timestamp < " + std::to_string(begin + length_s);
}

int64_t TestDaySeconds(const StreamSpec& spec) {
  return spec.lengths.test / spec.config.fps;
}

}  // namespace

std::vector<StreamSpec> AnalyticsStreams() {
  blazeit::DayLengths days;
  days.train = 6000;
  days.held_out = 6000;
  days.test = 24000;
  return {{blazeit::TaipeiConfig(), days}, {blazeit::ArchieConfig(), days}};
}

std::vector<StreamSpec> ServeStreams() {
  blazeit::DayLengths days;
  days.train = 6000;
  days.held_out = 6000;
  days.test = 18000;
  return {{blazeit::TaipeiConfig(), days}};
}

std::vector<MixQuery> AnalyticsMix(uint64_t seed) {
  SeedStream rng(seed);
  const std::vector<StreamSpec> streams = AnalyticsStreams();
  const int64_t day_s = TestDaySeconds(streams[0]);
  const int64_t window_s = day_s / 4;
  const int64_t half_s = day_s / 2;
  const std::string conf = " AT CONFIDENCE 95%";
  std::vector<MixQuery> mix;

  // Specialized aggregation, query-rewrite estimate: taipei's car NN is
  // accurate well inside these tolerances.
  const std::string eps_rewrite = Fmt("%.2f", rng.Pick<double>({0.08, 0.09, 0.1}));
  mix.push_back({"agg-rewrite",
                 "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
                 "ERROR WITHIN " + eps_rewrite + conf});
  // Specialized aggregation, control-variates estimate: archie's NN misses
  // the tolerance. The windowed COUNT(*) reuses the same NN (a weights-
  // cache hit within a pass). Windowed aggregates stay on this plan: a
  // windowed query rewrite can miss its tolerance (see README.md).
  mix.push_back({"agg-cv",
                 "SELECT FCOUNT(*) FROM archie WHERE class = 'car' "
                 "ERROR WITHIN " +
                     Fmt("%.2f", rng.Pick<double>({0.09, 0.1, 0.11})) +
                     conf});
  mix.push_back({"agg-cv-window",
                 "SELECT COUNT(*) FROM archie WHERE class = 'car' AND " +
                     Window(&rng, day_s, half_s) + " ERROR WITHIN " +
                     Fmt("%.2f", rng.Pick<double>({0.09, 0.1, 0.11})) +
                     conf});
  // Plain AQP: archie's training day holds neither buses nor people.
  mix.push_back({"agg-aqp",
                 "SELECT FCOUNT(*) FROM archie WHERE class = '" +
                     rng.Pick<std::string>({"bus", "person"}) +
                     "' ERROR WITHIN " +
                     Fmt("%.2f", rng.Pick<double>({0.05, 0.1})) + conf});
  // Tracker count-distinct over a window. Buses: the motion-IOU tracker
  // splits taipei's small, fast cars into several ids each (README.md).
  mix.push_back({"count-distinct-window",
                 "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE "
                 "class = 'bus' AND " + Window(&rng, day_s, half_s)});
  // Importance scrubbing, whole day: crowded frames. Importance-ordered
  // scrubbing takes no GAP here: with one, the confidence-ordered walk can
  // return fewer than LIMIT frames while the labels hold LIMIT GAP-separated
  // matches (see README.md), which the scrub check rejects.
  mix.push_back({"scrub-importance",
                 "SELECT timestamp FROM taipei GROUP BY timestamp "
                 "HAVING SUM(class='car') >= " +
                     std::to_string(rng.Int(3, 4)) + " LIMIT " +
                     std::to_string(rng.Int(5, 10))});
  // Importance scrubbing, multi-class and windowed.
  mix.push_back({"scrub-importance-window",
                 "SELECT timestamp FROM taipei WHERE " +
                     Window(&rng, day_s, window_s) +
                     " GROUP BY timestamp HAVING SUM(class='bus') >= 1 AND "
                     "SUM(class='car') >= " +
                     std::to_string(rng.Int(2, 3)) + " LIMIT " +
                     std::to_string(rng.Int(5, 10))});
  // Scan scrubbing: no training frame holds this many archie cars. The
  // scan walks frames in order, so its GAP selection is exact.
  mix.push_back({"scrub-scan-window",
                 "SELECT timestamp FROM archie WHERE " +
                     Window(&rng, day_s, window_s) +
                     " GROUP BY timestamp HAVING SUM(class='car') >= " +
                     std::to_string(rng.Int(6, 7)) + " LIMIT " +
                     std::to_string(rng.Int(3, 5)) + " GAP 30"});
  // Content-based selection: red tour buses that persist.
  mix.push_back({"selection",
                 "SELECT * FROM taipei WHERE class = 'bus' AND "
                 "redness(content) >= " +
                     Fmt("%.2f", rng.Pick<double>({0.2, 0.25, 0.3})) +
                     " AND area(mask) > " +
                     std::to_string(rng.Pick<int64_t>({15000, 20000, 25000})) +
                     " GROUP BY trackid HAVING COUNT(*) > " +
                     std::to_string(rng.Int(10, 20))});
  // Binary detection (NoScope replication), windowed.
  const std::string rate = Fmt("%.2f", rng.Pick<double>({0.01, 0.02, 0.05}));
  mix.push_back({"binary-window",
                 "SELECT timestamp FROM taipei WHERE class = 'bus' AND " +
                     Window(&rng, day_s, window_s) + " FNR WITHIN " + rate +
                     " FPR WITHIN " + rate});
  // Full scans: a class predicate, and a HAVING without LIMIT.
  mix.push_back({"full-scan-window",
                 "SELECT timestamp FROM taipei WHERE class = 'bus' AND " +
                     Window(&rng, day_s, half_s)});
  mix.push_back({"full-scan-having-window",
                 "SELECT timestamp FROM archie WHERE " +
                     Window(&rng, day_s, half_s) +
                     " GROUP BY timestamp HAVING SUM(class='car') >= 3"});
  rng.Shuffle(&mix);
  return mix;
}

std::vector<Tenant> ServeMix(uint64_t seed) {
  SeedStream rng(seed ^ 0x5e77e);
  const int64_t day_s = TestDaySeconds(ServeStreams()[0]);
  const int64_t window_s = day_s / 4;
  const std::string conf = " AT CONFIDENCE 95%";
  const std::string agg_class = rng.Pick<std::string>({"car", "bus"});
  auto overlapping = [&](const char* role) {
    return MixQuery{role,
                    "SELECT FCOUNT(*) FROM taipei WHERE class = '" +
                        agg_class + "' ERROR WITHIN " +
                        Fmt("%.2f", rng.Pick<double>({0.05, 0.1, 0.15})) +
                        conf};
  };
  std::vector<Tenant> tenants(4);
  // Overlapping tenants: the same class at different tolerances trains one
  // NN, so their queries coalesce into shared sweeps across clients.
  tenants[0].queries = {
      overlapping("agg-shared"),
      {"agg-shared-total", "SELECT COUNT(*) FROM taipei WHERE class = '" +
                               agg_class + "' ERROR WITHIN 0.1" + conf}};
  tenants[1].queries = {overlapping("agg-shared"), overlapping("agg-shared")};
  // Tenants whose queries share no specialized NN with anyone.
  tenants[2].queries = {
      {"scrub-importance",
       "SELECT timestamp FROM taipei GROUP BY timestamp HAVING "
       "SUM(class='car') >= " +
           std::to_string(rng.Int(3, 4)) + " LIMIT " +
           std::to_string(rng.Int(3, 6))},
      {"count-distinct-window",
       "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'bus' AND " +
           Window(&rng, day_s, window_s)}};
  tenants[3].queries = {
      {"binary-window", "SELECT timestamp FROM taipei WHERE class = 'bus' AND " +
                            Window(&rng, day_s, window_s) +
                            " FNR WITHIN 0.02 FPR WITHIN 0.02"},
      {"full-scan-window", "SELECT timestamp FROM taipei WHERE class = 'car' "
                           "AND " + Window(&rng, day_s, window_s)}};
  // Tenant assignment is seeded too.
  rng.Shuffle(&tenants);
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].client = "tenant-" + std::to_string(i);
  }
  return tenants;
}

}  // namespace perfbench
