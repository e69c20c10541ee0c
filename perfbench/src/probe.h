// The benchmark's measurement path: its own spans around the program's
// public entry points, self times of the query reports' spans, metrics-
// registry deltas, and process figures (CPU time, peak RSS, directory
// size). Nothing here reaches inside src/; it only reads the instruments
// the program exports.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace perfbench {

/// steady_clock (CLOCK_MONOTONIC) nanoseconds — the clock run.py reads
/// just before it starts this process, so set-up time counts from there.
int64_t NowNs();

/// CPU seconds this process has used, all threads.
double ProcessCpuSeconds();

/// Peak resident set size (VmHWM) in MB; 0 when unreadable.
double PeakRssMb();

/// Bytes under `dir` (regular files, recursively) in MB.
double DirectoryMb(const std::string& dir);

/// The benchmark's own spans. Thread-safe; kept in memory and written out
/// once, at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    /// What the span was for: a query's role, a stream name, a client.
    std::string detail;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Row in the Chrome trace: 0 for the main thread, 1 + tenant index
    /// for serve-mix client threads.
    int tid = 0;
    /// The query report's span tree, for spans around Execute/Submit when
    /// reports were collected (its times are relative to start_ns).
    std::shared_ptr<blazeit::obs::QueryTrace> query_trace;
  };

  void Add(Span span) BLAZEIT_EXCLUDES(mu_);
  std::vector<Span> spans() const BLAZEIT_EXCLUDES(mu_);

  /// Total duration (ms) of the spans named `name`.
  double TotalMs(const std::string& name) const BLAZEIT_EXCLUDES(mu_);

  /// Chrome trace_event JSON: the benchmark's spans on pid 1 and every
  /// attached query trace's spans on pid 2, one row per query, placed at
  /// the start of the benchmark span that carried it.
  std::string ToChromeJson(int64_t origin_ns) const BLAZEIT_EXCLUDES(mu_);

 private:
  mutable blazeit::util::Mutex mu_;
  std::vector<Span> spans_ BLAZEIT_GUARDED_BY(mu_);
};

/// Times a scope into a SpanLog (or only measures it when `log` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string detail = "",
             int tid = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_query_trace(std::shared_ptr<blazeit::obs::QueryTrace> trace) {
    span_.query_trace = std::move(trace);
  }
  /// Ends the span now; returns its duration in ms. Idempotent.
  double End();

 private:
  SpanLog* log_;
  SpanLog::Span span_;
  bool ended_ = false;
};

/// Self time (ms) per span name over one query trace: a span's duration
/// less the part of it its direct children cover.
std::map<std::string, double> SelfTimesMs(
    const blazeit::obs::QueryTrace& trace);

/// Value of a counter in a registry snapshot (0 when absent); histograms
/// give their observation count, or their sum with `histogram_sum`.
int64_t MetricValue(const blazeit::obs::MetricsSnapshot& snapshot,
                    const std::string& name, bool histogram_sum = false);

/// Sum of every counter whose name starts with `prefix` (labelled series).
int64_t MetricPrefixSum(const blazeit::obs::MetricsSnapshot& snapshot,
                        const std::string& prefix);

/// Writes `contents` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& contents);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
