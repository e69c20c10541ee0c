// Seeded inputs of the FrameQL benchmark: the streams each workload
// registers and the FrameQL text of every query mix. The seed picks
// classes, tolerances, LIMIT/GAP, time windows, UDF thresholds, query
// order and tenant assignment; the shape of each mix (which plans it
// covers and how much video each query ranges over) is fixed, so the work
// a run does varies little from seed to seed.
#ifndef PERFBENCH_MIX_H_
#define PERFBENCH_MIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "video/scene_model.h"

namespace perfbench {

/// One registered stream: its scene config and its three day lengths.
struct StreamSpec {
  blazeit::StreamConfig config;
  blazeit::DayLengths lengths;
};

/// One query of a mix. `role` names the query's slot in the mix (stable
/// across seeds, e.g. "agg-cv"); spans and listings use it.
struct MixQuery {
  std::string role;
  std::string frameql;
};

/// One serve-mix tenant: its client name and the queries it asks, in order.
struct Tenant {
  std::string client;
  std::vector<MixQuery> queries;
};

/// cold-mix / warm-mix streams: taipei (the specialized NNs are accurate)
/// and archie (its NN misses the tolerance, so aggregates fall back to
/// control variates).
std::vector<StreamSpec> AnalyticsStreams();

/// serve-mix streams: taipei only, on shorter days.
std::vector<StreamSpec> ServeStreams();

/// The cold-mix / warm-mix query mix: every PlanKind, windowed variants,
/// and the specialized-aggregation plan with both the query-rewrite and
/// the control-variates estimates.
std::vector<MixQuery> AnalyticsMix(uint64_t seed);

/// The four serve-mix tenants. Two ask overlapping aggregates (same class,
/// different tolerances) that coalesce across tenants; the other two ask
/// queries that share no specialized NN with anyone.
std::vector<Tenant> ServeMix(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_MIX_H_
