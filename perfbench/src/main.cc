// frameql_bench: the end-to-end FrameQL benchmark (see perfbench/README.md).
//
//   frameql_bench --workload cold-mix|warm-mix|serve-mix --seed N
//                 --seconds S --trace 0|1 [--out DIR] [--spawn-ns NS]
//   frameql_bench --list --seed N
//
// Runs one workload for about S seconds of whole rounds, checks every
// answer against references derived from public ground truth, and prints
// one JSON object as the last line of stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes a
// Chrome trace, the query reports and the metrics-registry delta under
// DIR/traces/). Exits 1 when an output check fails, 2 on usage or set-up
// errors. --spawn-ns is the CLOCK_MONOTONIC time at which the parent
// started this process; set-up time counts from there. --list prints
// every query of both mixes for the seed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "core/catalog.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "mix.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "probe.h"
#include "serve/admission_queue.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using blazeit::BlazeItEngine;
using blazeit::EngineOptions;
using blazeit::QueryOutput;
using blazeit::Result;
using blazeit::Status;
using blazeit::VideoCatalog;
using blazeit::obs::MetricsRegistry;
using blazeit::obs::MetricsSnapshot;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
  int64_t spawn_ns = 0;
  /// When main() began; warm-mix's set-up counts the launch up to here.
  int64_t main_ns = 0;
  bool list = false;
};

// ---------------------------------------------------------------------------
// What one run measured.
// ---------------------------------------------------------------------------

/// One timed query: its wall time, plan, and (traced runs) its report.
struct QueryRecord {
  double wall_ms = 0.0;
  std::string plan;
  std::shared_ptr<blazeit::obs::ExecutionReport> report;
};

struct RunData {
  SpanLog spans;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = 0.0;
  /// Per timed round (cold/warm: one pass over the mix including the
  /// closing flush; serve: one lockstep round of every tenant).
  std::vector<double> round_wall_s;
  std::vector<double> round_sim_s;
  std::vector<double> store_mb;
  std::vector<double> latencies_ms;
  std::vector<QueryRecord> queries;
  /// CPU seconds used during the timed rounds, all threads.
  double round_cpu_s = 0.0;
  /// Registry delta over the timed phase.
  MetricsSnapshot delta;
  /// Catalog set-ups serving timed rounds, their EnableDetectionStore
  /// time and the segment files they opened.
  int64_t setups = 0;
  double store_open_ms = 0.0;
  int64_t setup_segment_opens = 0;
  // serve-mix only.
  blazeit::serve::ServerStats serve_delta;
  double submit_ms_total = 0.0;
  double queue_wait_ticks_total = 0.0;
  double flight_exec_ms_total = 0.0;
  int64_t flight_records = 0;

  void Fail(const std::string& what) {
    if (failures.size() < 20) failures.push_back(what);
    else if (failures.size() == 20) failures.push_back("...");
  }
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

EngineOptions BenchEngineOptions(bool trace) {
  EngineOptions options;
  options.use_store_index = true;
  options.collect_reports = trace;
  return options;
}

std::string StoreDir(const Args& args) {
  return args.out_dir + "/stores/" + args.workload + "-" +
         std::to_string(static_cast<long long>(getpid()));
}

/// Catalog set-up: the store (when `store_dir` is non-empty) plus every
/// stream, under the benchmark's spans.
Status SetUpCatalog(VideoCatalog* catalog, const std::string& store_dir,
                    const std::vector<StreamSpec>& streams, RunData* run,
                    bool timed) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  if (!store_dir.empty()) {
    ScopedSpan span(&run->spans, "VideoCatalog::EnableDetectionStore");
    Status enabled = catalog->EnableDetectionStore(store_dir);
    const double ms = span.End();
    if (!enabled.ok()) return enabled;
    if (timed) run->store_open_ms += ms;
  }
  for (const StreamSpec& spec : streams) {
    ScopedSpan span(&run->spans, "VideoCatalog::AddStream", spec.config.name);
    Status added = catalog->AddStream(spec.config, spec.lengths);
    if (!added.ok()) return added;
  }
  if (timed) {
    run->setup_segment_opens += MetricValue(
        MetricsRegistry::Global().Snapshot().DeltaFrom(before),
        "store.segment_opens");
    ++run->setups;
  }
  return Status::OK();
}

using PassOutputs = std::vector<Result<QueryOutput>>;

/// Runs the analytics mix once through `engine`; a failed query counts in
/// run->failed (timed passes) and keeps its error in the returned slot.
PassOutputs RunMixPass(BlazeItEngine* engine, const std::vector<MixQuery>& mix,
                       RunData* run, bool timed, double* sim_s) {
  PassOutputs outputs;
  *sim_s = 0.0;
  for (const MixQuery& q : mix) {
    ScopedSpan span(&run->spans, "BlazeItEngine::Execute", q.role);
    outputs.push_back(engine->Execute(q.frameql));
    const Result<QueryOutput>& out = outputs.back();
    if (out.ok() && out.value().report != nullptr) {
      span.set_query_trace(out.value().report->trace);
    }
    const double ms = span.End();
    if (timed) ++run->attempted;
    if (!out.ok()) {
      if (timed) ++run->failed;
      std::fprintf(stderr, "query %s failed: %s\n", q.role.c_str(),
                   out.status().ToString().c_str());
      continue;
    }
    *sim_s += out.value().cost.TotalSeconds();
    if (timed) {
      run->latencies_ms.push_back(ms);
      QueryRecord record;
      record.wall_ms = ms;
      record.plan = blazeit::PlanKindName(out.value().plan);
      record.report = out.value().report;
      run->queries.push_back(std::move(record));
    }
  }
  return outputs;
}

/// Checks every answered query of one pass against ground truth.
void CheckPass(VideoCatalog* catalog, BlazeItEngine* engine,
               const std::vector<MixQuery>& mix, const PassOutputs& outputs,
               RunData* run) {
  for (size_t i = 0; i < mix.size(); ++i) {
    if (!outputs[i].ok()) continue;
    const std::string why = CheckQueryOutput(catalog, mix[i].frameql,
                                             outputs[i].value(), engine->udfs());
    if (!why.empty()) run->Fail(mix[i].role + ": " + why);
  }
}

/// Compares the answered queries of a later pass with a reference pass.
void CheckRepeat(const std::vector<MixQuery>& mix, const PassOutputs& got,
                 const PassOutputs& want, bool compare_cost, RunData* run) {
  for (size_t i = 0; i < mix.size(); ++i) {
    if (!got[i].ok() || !want[i].ok()) continue;
    const std::string why =
        compare_cost ? CheckIdentical(got[i].value(), want[i].value())
                     : CheckSameAnswer(got[i].value(), want[i].value());
    if (!why.empty()) run->Fail(mix[i].role + " (repeat pass): " + why);
  }
}

/// Brackets the timed phase for the metrics-registry delta.
struct TimedPhase {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  void Finish(RunData* run) const {
    run->delta = MetricsRegistry::Global().Snapshot().DeltaFrom(before);
  }
};

/// Times one round: wall into round_wall_s, CPU into round_cpu_s.
struct RoundClock {
  int64_t start_ns = NowNs();
  double start_cpu = ProcessCpuSeconds();

  void Finish(RunData* run) const {
    run->round_wall_s.push_back(static_cast<double>(NowNs() - start_ns) /
                                1e9);
    run->round_cpu_s += ProcessCpuSeconds() - start_cpu;
  }
};

// ---------------------------------------------------------------------------
// cold-mix: an empty store on every round.
// ---------------------------------------------------------------------------

Status RunColdMix(const Args& args, RunData* run) {
  const std::vector<MixQuery> mix = AnalyticsMix(args.seed);
  const std::vector<StreamSpec> streams = AnalyticsStreams();
  const std::string dir = StoreDir(args);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  PassOutputs first;
  // The timed phase brackets whole rounds: store wipe, set-up, pass, flush.
  TimedPhase phase;
  do {
    fs::remove_all(dir);
    VideoCatalog catalog;
    BLAZEIT_RETURN_NOT_OK(SetUpCatalog(&catalog, dir, streams, run, true));
    if (run->round_wall_s.empty()) {
      run->setup_s = static_cast<double>(NowNs() - args.spawn_ns) / 1e9;
    }
    BlazeItEngine engine(&catalog, BenchEngineOptions(args.trace));
    const RoundClock clock;
    double sim = 0.0;
    PassOutputs outputs = RunMixPass(&engine, mix, run, true, &sim);
    {
      ScopedSpan span(&run->spans, "VideoCatalog::FlushDetectionStore");
      BLAZEIT_RETURN_NOT_OK(catalog.FlushDetectionStore());
    }
    clock.Finish(run);
    run->round_sim_s.push_back(sim);
    run->store_mb.push_back(DirectoryMb(dir));
    if (first.empty()) {
      CheckPass(&catalog, &engine, mix, outputs, run);
      first = std::move(outputs);
    } else {
      CheckRepeat(mix, outputs, first, /*compare_cost=*/true, run);
    }
  } while (NowNs() < deadline);
  phase.Finish(run);
  fs::remove_all(dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// warm-mix: a store warmed beforehand, reopened by a fresh catalog/engine.
// ---------------------------------------------------------------------------

Status RunWarmMix(const Args& args, RunData* run) {
  const std::vector<MixQuery> mix = AnalyticsMix(args.seed);
  const std::vector<StreamSpec> streams = AnalyticsStreams();
  const std::string dir = StoreDir(args);
  fs::remove_all(dir);

  // Preparation (not set-up): the warming pass, then segment sketches for
  // every stream's test-day detections so warm scans can skip segments.
  PassOutputs warming;
  double warming_sim = 0.0;
  {
    RunData scratch;
    VideoCatalog catalog;
    BLAZEIT_RETURN_NOT_OK(SetUpCatalog(&catalog, dir, streams, &scratch,
                                       false));
    BlazeItEngine engine(&catalog, BenchEngineOptions(false));
    warming = RunMixPass(&engine, mix, &scratch, false, &warming_sim);
    CheckPass(&catalog, &engine, mix, warming, run);
    BLAZEIT_RETURN_NOT_OK(catalog.FlushDetectionStore());
    for (const StreamSpec& spec : streams) {
      auto stream = catalog.GetStream(spec.config.name);
      BLAZEIT_RETURN_NOT_OK(stream.status());
      BLAZEIT_RETURN_NOT_OK(catalog.detection_store()->BuildSketches(
          stream.value()->test_detections_ns));
    }
  }

  // Set-up: the launch up to main() plus the reopen of the warmed store.
  const int64_t setup_start = NowNs();
  VideoCatalog catalog;
  BLAZEIT_RETURN_NOT_OK(SetUpCatalog(&catalog, dir, streams, run, true));
  run->setup_s = static_cast<double>(args.main_ns - args.spawn_ns +
                                     NowNs() - setup_start) / 1e9;
  BlazeItEngine engine(&catalog, BenchEngineOptions(args.trace));

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  TimedPhase phase;
  std::vector<PassOutputs> passes;
  do {
    const RoundClock clock;
    double sim = 0.0;
    passes.push_back(RunMixPass(&engine, mix, run, true, &sim));
    {
      ScopedSpan span(&run->spans, "VideoCatalog::FlushDetectionStore");
      BLAZEIT_RETURN_NOT_OK(catalog.FlushDetectionStore());
    }
    clock.Finish(run);
    run->round_sim_s.push_back(sim);
  } while (NowNs() < deadline);
  phase.Finish(run);
  run->store_mb.push_back(DirectoryMb(dir));

  for (size_t p = 0; p < passes.size(); ++p) {
    CheckRepeat(mix, passes[p], warming, /*compare_cost=*/false, run);
    if (run->round_sim_s[p] > warming_sim) {
      run->Fail("warm pass charged more simulated seconds than warming");
    }
  }
  fs::remove_all(dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve-mix: four closed-loop tenants through AdmissionQueue.
// ---------------------------------------------------------------------------

/// Routes completed responses to the client thread waiting for them.
class ResponseBoard {
 public:
  ResponseBoard(blazeit::serve::AdmissionQueue* queue, SpanLog* spans)
      : queue_(queue), spans_(spans) {}

  /// Blocks until `ticket`'s response has completed and returns it.
  blazeit::serve::ServeResponse Await(int64_t ticket, int tid) {
    blazeit::util::MutexLock lock(mu_);
    for (;;) {
      const int64_t start = NowNs();
      std::vector<blazeit::serve::ServeResponse> done =
          queue_->TakeCompleted();
      if (!done.empty()) {  // empty polls would swamp the trace
        spans_->Add({"serve::AdmissionQueue::TakeCompleted",
                     std::to_string(done.size()) + " responses", start,
                     NowNs(), tid, nullptr});
      }
      for (auto& response : done) {
        ready_.emplace(response.ticket, std::move(response));
      }
      auto it = ready_.find(ticket);
      if (it != ready_.end()) {
        blazeit::serve::ServeResponse response = std::move(it->second);
        ready_.erase(it);
        return response;
      }
      cv_.WaitFor(mu_, std::chrono::microseconds(250), [] { return false; });
    }
  }

 private:
  blazeit::serve::AdmissionQueue* queue_;
  SpanLog* spans_;
  blazeit::util::Mutex mu_;
  blazeit::util::CondVar cv_;
  std::map<int64_t, blazeit::serve::ServeResponse> ready_
      BLAZEIT_GUARDED_BY(mu_);
};

/// One tenant's view of a round: its responses and latencies.
struct TenantRound {
  std::vector<blazeit::serve::ServeResponse> responses;
  std::vector<double> latency_ms;
  std::vector<double> submit_ms;
  std::vector<bool> refused;
};

/// One lockstep round: every tenant runs its query list once, closed loop.
std::vector<TenantRound> ServeRound(blazeit::serve::AdmissionQueue* queue,
                                    ResponseBoard* board,
                                    const std::vector<Tenant>& tenants,
                                    SpanLog* spans) {
  std::vector<TenantRound> rounds(tenants.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < tenants.size(); ++c) {
    threads.emplace_back([&, c] {
      const int tid = static_cast<int>(c) + 1;
      for (const MixQuery& q : tenants[c].queries) {
        ScopedSpan request(spans, "serve.request", q.role, tid);
        const int64_t start = NowNs();
        ScopedSpan submit(spans, "serve::AdmissionQueue::Submit", q.role, tid);
        Result<int64_t> ticket = queue->Submit(tenants[c].client, q.frameql);
        rounds[c].submit_ms.push_back(submit.End());
        if (!ticket.ok()) {
          rounds[c].responses.emplace_back();
          rounds[c].responses.back().output = ticket.status();
          rounds[c].refused.push_back(true);
          rounds[c].latency_ms.push_back(0.0);
          continue;
        }
        blazeit::serve::ServeResponse response =
            board->Await(ticket.value(), tid);
        rounds[c].latency_ms.push_back(
            static_cast<double>(NowNs() - start) / 1e6);
        if (response.output.ok() && response.output.value().report) {
          request.set_query_trace(response.output.value().report->trace);
        }
        rounds[c].refused.push_back(false);
        rounds[c].responses.push_back(std::move(response));
      }
    });
  }
  for (auto& t : threads) t.join();
  return rounds;
}

/// The queue's stats once they stop changing. A client sees its response
/// before the server folds that window into its stats, so reads right
/// after a round would race the last window.
blazeit::serve::ServerStats SettledStats(
    const blazeit::serve::AdmissionQueue& queue) {
  blazeit::serve::ServerStats last = queue.stats();
  for (int unchanged = 0; unchanged < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const blazeit::serve::ServerStats now = queue.stats();
    unchanged = now.batches == last.batches &&
                        now.standalone_seconds == last.standalone_seconds
                    ? unchanged + 1
                    : 0;
    last = now;
  }
  return last;
}

blazeit::serve::ServerStats StatsDelta(const blazeit::serve::ServerStats& a,
                                       const blazeit::serve::ServerStats& b) {
  blazeit::serve::ServerStats d;
  d.submitted = a.submitted - b.submitted;
  d.batches = a.batches - b.batches;
  d.groups = a.groups - b.groups;
  d.coalesced_queries = a.coalesced_queries - b.coalesced_queries;
  d.cross_client_groups = a.cross_client_groups - b.cross_client_groups;
  d.shared_nn_frames = a.shared_nn_frames - b.shared_nn_frames;
  d.shared_models = a.shared_models - b.shared_models;
  d.standalone_seconds = a.standalone_seconds - b.standalone_seconds;
  d.batch_seconds = a.batch_seconds - b.batch_seconds;
  return d;
}

Status RunServeMix(const Args& args, RunData* run) {
  const std::vector<Tenant> tenants = ServeMix(args.seed);
  VideoCatalog catalog;
  BLAZEIT_RETURN_NOT_OK(
      SetUpCatalog(&catalog, "", ServeStreams(), run, true));
  run->setup_s = static_cast<double>(NowNs() - args.spawn_ns) / 1e9;
  BlazeItEngine engine(&catalog, BenchEngineOptions(args.trace));

  // Preparation: a serial Execute of every distinct query (the reference
  // each response must match bit for bit), checked against ground truth.
  std::map<std::string, QueryOutput> serial;
  for (const Tenant& tenant : tenants) {
    for (const MixQuery& q : tenant.queries) {
      if (serial.count(q.frameql) > 0) continue;
      Result<QueryOutput> out = engine.Execute(q.frameql);
      if (!out.ok()) {
        return Status::Internal("serial reference failed: " +
                                out.status().ToString());
      }
      const std::string why =
          CheckQueryOutput(&catalog, q.frameql, out.value(), engine.udfs());
      if (!why.empty()) run->Fail(q.role + ": " + why);
      serial.emplace(q.frameql, std::move(out).value());
    }
  }

  blazeit::serve::ServeOptions options;
  options.window_ticks = 1;
  options.wall_clock_tick_ms = 2;
  blazeit::serve::AdmissionQueue queue(&engine, options);
  ResponseBoard board(&queue, &run->spans);
  // Every response must match its serial reference bit for bit; the
  // serial meters of all responses must add up to the server's own
  // standalone_seconds once it has settled.
  double serial_seconds = 0.0;
  auto absorb = [&](const std::vector<TenantRound>& rounds, bool timed) {
    double batch_seconds = 0.0;
    for (size_t c = 0; c < tenants.size(); ++c) {
      for (size_t i = 0; i < tenants[c].queries.size(); ++i) {
        const MixQuery& q = tenants[c].queries[i];
        const blazeit::serve::ServeResponse& response =
            rounds[c].responses[i];
        if (timed) {
          ++run->attempted;
          run->submit_ms_total += rounds[c].submit_ms[i];
        }
        if (rounds[c].refused[i] || !response.output.ok()) {
          if (timed) ++run->failed;
          std::fprintf(stderr, "serve query %s failed: %s\n", q.role.c_str(),
                       response.output.status().ToString().c_str());
          continue;
        }
        const QueryOutput& want = serial.at(q.frameql);
        serial_seconds += want.cost.TotalSeconds();
        const std::string why = response.degraded
                                    ? std::string("response was degraded")
                                    : CheckIdentical(response.output.value(),
                                                     want);
        if (!why.empty()) run->Fail(q.role + " (served): " + why);
        if (!timed) continue;
        batch_seconds += response.stats.batch_seconds;
        run->latencies_ms.push_back(rounds[c].latency_ms[i]);
        run->queue_wait_ticks_total += static_cast<double>(
            response.executed_tick - response.admitted_tick);
        QueryRecord record;
        record.wall_ms = rounds[c].latency_ms[i];
        record.plan = blazeit::PlanKindName(response.output.value().plan);
        record.report = response.output.value().report;
        run->queries.push_back(std::move(record));
      }
    }
    if (timed) run->round_sim_s.push_back(batch_seconds);
  };
  absorb(ServeRound(&queue, &board, tenants, nullptr), false);  // warm-up

  const blazeit::serve::ServerStats stats_before = SettledStats(queue);
  const int64_t flight_base =
      blazeit::obs::FlightRecorder::Global().total_recorded();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  TimedPhase phase;
  do {
    const RoundClock clock;
    std::vector<TenantRound> rounds =
        ServeRound(&queue, &board, tenants, &run->spans);
    clock.Finish(run);
    absorb(rounds, true);
  } while (NowNs() < deadline);
  phase.Finish(run);

  const blazeit::serve::ServerStats stats_after = SettledStats(queue);
  run->serve_delta = StatsDelta(stats_after, stats_before);
  if (std::abs(stats_after.standalone_seconds - serial_seconds) >
      1e-9 * std::max(1.0, std::abs(serial_seconds))) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "ServerStats::standalone_seconds %.9g != serial meters %.9g",
                  stats_after.standalone_seconds, serial_seconds);
    run->Fail(buf);
  }
  for (const auto& record : blazeit::obs::FlightRecorder::Global().Snapshot()) {
    if (record.sequence < flight_base || record.client.empty()) continue;
    run->flight_exec_ms_total += record.wall_ms;
    ++run->flight_records;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::vector<Metric> EndToEnd(const RunData& run) {
  const double queries = static_cast<double>(run.latencies_ms.size());
  const double wall = Sum(run.round_wall_s);
  return {
      {"setup_s", run.setup_s, "s"},
      {"mix_wall_s", Median(run.round_wall_s), "s"},
      {"sim_s", Median(run.round_sim_s), "s"},
      {"queries_per_s", wall > 0 ? queries / wall : 0.0, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// p95 latency when at least ten responses lie beyond it, else 0.
double LatencyP95(const RunData& run) {
  return run.latencies_ms.size() >= 200 ? Percentile(run.latencies_ms, 0.95)
                                        : 0.0;
}

const std::vector<blazeit::PlanKind>& AllPlans() {
  static const std::vector<blazeit::PlanKind> plans = {
      blazeit::PlanKind::kSpecializedAggregation,
      blazeit::PlanKind::kAqpAggregation,
      blazeit::PlanKind::kTrackerCountDistinct,
      blazeit::PlanKind::kImportanceScrubbing,
      blazeit::PlanKind::kScanScrubbing,
      blazeit::PlanKind::kFilteredSelection,
      blazeit::PlanKind::kBinaryDetection,
      blazeit::PlanKind::kFullScan};
  return plans;
}

/// Report span name -> per-layer metric it adds its self time to.
const char* SpanLayer(const std::string& span) {
  if (span == "parse" || span == "analyze") return "frameql.prepare_ms";
  if (span == "optimize") return "core.optimize_ms";
  if (span.rfind("train", 0) == 0) return "core.train_ms";
  if (span == "sweep" || span == "test-sweep") return "core.sweep_ms";
  if (span.rfind("holdout", 0) == 0) return "core.holdout_ms";
  if (span.rfind("calibrate", 0) == 0) return "core.calibrate_ms";
  if (span.rfind("estimate", 0) == 0) return "core.estimate_ms";
  if (span == "verify") return "core.verify_ms";
  if (span == "scan") return "core.scan_ms";
  if (span == "track") return "core.track_ms";
  if (span == "cascade") return "core.cascade_ms";
  return nullptr;
}

std::vector<Metric> PerLayer(const RunData& run) {
  const double rounds =
      std::max<double>(1.0, static_cast<double>(run.round_wall_s.size()));
  const MetricsSnapshot& d = run.delta;
  auto per_round = [&](double v) { return v / rounds; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::map<std::string, double> layer_ms;
  std::map<std::string, double> execute_ms;
  double det_s = 0, nn_s = 0, filter_s = 0, train_s = 0, thresh_s = 0;
  double det_calls = 0;
  for (const QueryRecord& q : run.queries) {
    execute_ms[q.plan] += q.wall_ms;
    if (q.report == nullptr) continue;
    det_s += q.report->detection_seconds;
    nn_s += q.report->specialized_nn_seconds;
    filter_s += q.report->filter_seconds;
    train_s += q.report->training_seconds;
    thresh_s += q.report->thresholding_seconds;
    det_calls += static_cast<double>(q.report->detection_calls);
    if (q.report->trace == nullptr) continue;
    for (const auto& [span, ms] : SelfTimesMs(*q.report->trace)) {
      if (const char* layer = SpanLayer(span)) layer_ms[layer] += ms;
    }
  }

  std::vector<Metric> out;
  for (const char* name :
       {"frameql.prepare_ms", "core.optimize_ms", "core.train_ms",
        "core.sweep_ms", "core.holdout_ms", "core.calibrate_ms",
        "core.estimate_ms", "core.verify_ms", "core.scan_ms", "core.track_ms",
        "core.cascade_ms"}) {
    out.push_back({name, per_round(layer_ms[name]), "ms"});
  }
  // Execute spans exist only where queries call Execute (cold/warm).
  const bool direct = run.serve_delta.submitted == 0;
  for (blazeit::PlanKind plan : AllPlans()) {
    const std::string name = blazeit::PlanKindName(plan);
    out.push_back({"core.execute_ms." + name,
                   direct ? per_round(execute_ms[name]) : 0.0, "ms"});
  }

  const double payload_reads =
      static_cast<double>(MetricValue(d, "store.payload_reads"));
  const double persistent_hits =
      static_cast<double>(MetricValue(d, "cache.hits{tier=persistent}"));
  const double persistent_misses =
      static_cast<double>(MetricValue(d, "cache.misses{tier=persistent}"));
  const double consulted =
      static_cast<double>(MetricValue(d, "sketch.blocks_consulted"));
  const double refuted =
      static_cast<double>(MetricValue(d, "sketch.blocks_refuted"));
  auto counter = [&](const char* name) {
    return per_round(static_cast<double>(MetricValue(d, name)));
  };
  const double setups = std::max<double>(1.0, static_cast<double>(run.setups));
  const double served = static_cast<double>(run.attempted);
  const blazeit::serve::ServerStats& s = run.serve_delta;
  std::vector<Metric> rest = {
      {"nn.train_batches", counter("nn.train_batches"), "count"},
      {"nn.inference_frames",
       per_round(static_cast<double>(
           MetricPrefixSum(d, "nn.inference_frames{"))),
       "count"},
      {"nn.weights_cache_hits", counter("nn.weights_cache_hits"), "count"},
      {"store.open_ms", run.store_open_ms / setups, "ms"},
      {"store.segment_opens",
       static_cast<double>(run.setup_segment_opens) / setups, "count"},
      {"store.flush_ms",
       per_round(run.spans.TotalMs("VideoCatalog::FlushDetectionStore")),
       "ms"},
      {"store.segment_flushes", counter("store.segment_flushes"), "count"},
      {"store.payload_reads", per_round(payload_reads), "count"},
      {"store.payload_bytes",
       per_round(static_cast<double>(
           MetricValue(d, "store.payload_bytes", /*histogram_sum=*/true))),
       "bytes"},
      {"store.crc_validations", counter("store.records_crc_validated"),
       "count"},
      {"store.reads_per_artifact", ratio(payload_reads, persistent_hits),
       "ratio"},
      {"store.mb", Median(run.store_mb), "MB"},
      {"cache.persistent_hits", per_round(persistent_hits), "count"},
      {"cache.persistent_misses", per_round(persistent_misses), "count"},
      {"cache.hit_ratio",
       ratio(persistent_hits, persistent_hits + persistent_misses), "ratio"},
      {"cache.shared_hits", counter("cache.hits{tier=shared}"), "count"},
      {"cache.shared_promotions", counter("cache.promotions{tier=shared}"),
       "count"},
      {"sketch.blocks_consulted", per_round(consulted), "count"},
      {"sketch.blocks_refuted", per_round(refuted), "count"},
      {"sketch.refuted_ratio", ratio(refuted, consulted), "ratio"},
      {"exec.run_calls", counter("exec.run_calls"), "count"},
      {"exec.shards_total", counter("exec.shards_total"), "count"},
      {"exec.cores_busy", ratio(run.round_cpu_s, Sum(run.round_wall_s)),
       "cores"},
      {"sim.detection_s", per_round(det_s), "s"},
      {"sim.specialized_nn_s", per_round(nn_s), "s"},
      {"sim.filter_s", per_round(filter_s), "s"},
      {"sim.training_s", per_round(train_s), "s"},
      {"sim.thresholding_s", per_round(thresh_s), "s"},
      {"sim.detection_calls", per_round(det_calls), "count"},
      {"serve.submit_ms", ratio(run.submit_ms_total, served), "ms"},
      {"serve.exec_ms",
       ratio(run.flight_exec_ms_total,
             static_cast<double>(run.flight_records)),
       "ms"},
      {"serve.queue_wait_ticks",
       ratio(run.queue_wait_ticks_total,
             static_cast<double>(run.latencies_ms.size())) *
           (direct ? 0.0 : 1.0),
       "ticks"},
      {"serve.batches", per_round(static_cast<double>(s.batches)), "count"},
      {"serve.groups", per_round(static_cast<double>(s.groups)), "count"},
      {"serve.coalesced_queries",
       per_round(static_cast<double>(s.coalesced_queries)), "count"},
      {"serve.cross_client_groups",
       per_round(static_cast<double>(s.cross_client_groups)), "count"},
      {"serve.shared_nn_frames",
       per_round(static_cast<double>(s.shared_nn_frames)), "count"},
      {"serve.shared_models", per_round(static_cast<double>(s.shared_models)),
       "count"},
      {"serve.latency_p50_ms", direct ? 0.0 : Median(run.latencies_ms),
       "ms"},
      {"serve.latency_p95_ms", direct ? 0.0 : LatencyP95(run), "ms"},
      {"traced.mix_wall_s", Median(run.round_wall_s), "s"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

/// Traced runs: the Chrome trace, each query's report, the registry delta.
bool WriteTraceFiles(const Args& args, const RunData& run, int64_t origin_ns) {
  const std::string dir = args.out_dir + "/traces/" + args.workload +
                          "-seed" + std::to_string(args.seed);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;
  std::string reports;
  for (const QueryRecord& q : run.queries) {
    if (q.report != nullptr) reports += q.report->ToJson() + "\n";
  }
  return WriteFile(dir + "/trace.json", run.spans.ToChromeJson(origin_ns)) &&
         WriteFile(dir + "/reports.jsonl", reports) &&
         WriteFile(dir + "/metrics_delta.json", run.delta.ToJson());
}

int Usage() {
  std::fprintf(stderr,
               "usage: frameql_bench --workload cold-mix|warm-mix|serve-mix "
               "--seed N --seconds S --trace 0|1 [--out DIR] "
               "[--spawn-ns NS]\n       frameql_bench --list --seed N\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--spawn-ns") {
      args->spawn_ns = std::strtoll(value.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->list || args->seconds > 0;
}

void PrintMixes(uint64_t seed) {
  std::printf("cold-mix / warm-mix (seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (const MixQuery& q : AnalyticsMix(seed)) {
    std::printf("  %-24s %s\n", q.role.c_str(), q.frameql.c_str());
  }
  std::printf("serve-mix (seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (const Tenant& tenant : ServeMix(seed)) {
    for (const MixQuery& q : tenant.queries) {
      std::printf("  %-9s %-22s %s\n", tenant.client.c_str(), q.role.c_str(),
                  q.frameql.c_str());
    }
  }
}

int Main(int argc, char** argv) {
  const int64_t main_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.list) {
    PrintMixes(args.seed);
    return 0;
  }
  args.main_ns = main_ns;
  if (args.spawn_ns <= 0 || args.spawn_ns > main_ns) args.spawn_ns = main_ns;
  blazeit::Logger::set_level(blazeit::LogLevel::kWarning);

  RunData run;
  Status status;
  if (args.workload == "cold-mix") {
    status = RunColdMix(args, &run);
  } else if (args.workload == "warm-mix") {
    status = RunWarmMix(args, &run);
  } else if (args.workload == "serve-mix") {
    status = RunServeMix(args, &run);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  if (args.trace && !WriteTraceFiles(args, run, main_ns)) {
    std::fprintf(stderr, "error: could not write trace files under %s\n",
                 args.out_dir.c_str());
    return 2;
  }
  for (const std::string& failure : run.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  const bool correct = run.failures.empty();
  // Figures outside the fixed metric set, on a line of their own.
  std::string walls;
  for (double w : run.round_wall_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", walls.empty() ? "" : ", ", w);
    walls += buf;
  }
  std::printf("{\"round_wall_s\": [%s]}\n", walls.c_str());
  std::printf(
      "{\"rounds\": %zu, \"responses\": %zu, \"latency_p50_ms\": %.10g, "
      "\"latency_p95_ms\": %.10g, \"store_mb\": %.10g}\n",
      run.round_wall_s.size(), run.latencies_ms.size(),
      Median(run.latencies_ms), LatencyP95(run), Median(run.store_mb));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(run.attempted),
      static_cast<long long>(run.failed),
      MetricsJson(args.trace ? PerLayer(run) : EndToEnd(run)).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
