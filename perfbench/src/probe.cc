#include "probe.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "net/http.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double DirectoryMb(const std::string& dir) {
  std::error_code ec;
  uintmax_t bytes = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void SpanLog::Add(Span span) {
  blazeit::util::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  blazeit::util::MutexLock lock(mu_);
  return spans_;
}

double SpanLog::TotalMs(const std::string& name) const {
  blazeit::util::MutexLock lock(mu_);
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

namespace {

std::string Event(const std::string& name, const std::string& cat, int pid,
                  int64_t tid, double ts_us, double dur_us,
                  const std::string& args) {
  char times[96];
  std::snprintf(times, sizeof(times), ",\"ts\":%.3f,\"dur\":%.3f", ts_us,
                dur_us);
  return "{\"name\":\"" + blazeit::net::JsonEscape(name) + "\",\"cat\":\"" +
         cat + "\",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + times + ",\"args\":{" + args +
         "}}";
}

}  // namespace

std::string SpanLog::ToChromeJson(int64_t origin_ns) const {
  const std::vector<Span> all = spans();
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"benchmark spans\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"query report spans\"}}";
  int64_t query_row = 0;
  for (const Span& span : all) {
    const double ts_us = static_cast<double>(span.start_ns - origin_ns) / 1e3;
    out += "," + Event(span.name, "perfbench", 1, span.tid, ts_us,
                       static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                       "\"detail\":\"" +
                           blazeit::net::JsonEscape(span.detail) + "\"");
    if (span.query_trace == nullptr) continue;
    for (const auto& qs : span.query_trace->spans()) {
      std::string args;
      if (qs.has_cost) {
        char cost[64];
        std::snprintf(cost, sizeof(cost), "\"simulated_seconds\":%.9g",
                      qs.cost_end_seconds - qs.cost_begin_seconds);
        args = cost;
      }
      out += "," + Event(qs.name, "blazeit", 2, query_row,
                         ts_us + static_cast<double>(qs.start_ns) / 1e3,
                         static_cast<double>(qs.end_ns - qs.start_ns) / 1e3,
                         args);
    }
    ++query_row;
  }
  out += "]}";
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string detail,
                       int tid)
    : log_(log) {
  span_.name = std::move(name);
  span_.detail = std::move(detail);
  span_.tid = tid;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::End() {
  if (!ended_) {
    ended_ = true;
    span_.end_ns = NowNs();
    if (log_ != nullptr) log_->Add(span_);
  }
  return static_cast<double>(span_.end_ns - span_.start_ns) / 1e6;
}

std::map<std::string, double> SelfTimesMs(
    const blazeit::obs::QueryTrace& trace) {
  const auto spans = trace.spans();
  std::vector<int64_t> covered(spans.size(), 0);
  // Children of one span run one after another on the query's thread, so
  // their durations add up to the part of the parent they cover.
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[spans[i].name] +=
        static_cast<double>(std::max<int64_t>(0, dur - covered[i])) / 1e6;
  }
  return self;
}

int64_t MetricValue(const blazeit::obs::MetricsSnapshot& snapshot,
                    const std::string& name, bool histogram_sum) {
  const auto* entry = snapshot.Find(name);
  if (entry == nullptr) return 0;
  return histogram_sum ? entry->sum : entry->value;
}

int64_t MetricPrefixSum(const blazeit::obs::MetricsSnapshot& snapshot,
                        const std::string& prefix) {
  int64_t total = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.name.rfind(prefix, 0) == 0) total += entry.value;
  }
  return total;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace perfbench
