#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "frameql/analyzer.h"
#include "frameql/ast.h"
#include "frameql/parser.h"
#include "video/geometry.h"

namespace perfbench {

namespace {

using blazeit::AnalyzedQuery;
using blazeit::Detection;
using blazeit::QueryOutput;
using blazeit::SelectionRow;
using blazeit::StreamData;

std::string Format(const char* format, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

std::string FrameError(const char* what, int64_t frame) {
  return std::string(what) + " (frame " + std::to_string(frame) + ")";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameRect(const blazeit::Rect& a, const blazeit::Rect& b) {
  return SameBits(a.xmin, b.xmin) && SameBits(a.ymin, b.ymin) &&
         SameBits(a.xmax, b.xmax) && SameBits(a.ymax, b.ymax);
}

bool SameDetection(const Detection& a, const Detection& b) {
  return a.class_id == b.class_id && SameRect(a.rect, b.rect) &&
         SameBits(a.score, b.score) && a.features == b.features;
}

/// Raster at which content UDFs are evaluated on detection crops — the
/// selection plan's documented predicate resolution.
constexpr int kUdfRaster = 48;

/// Matches `det` to the same-class ground-truth object it overlaps most
/// (IoU >= 0.3); -1 when none does.
int64_t MatchTrack(const blazeit::SyntheticVideo& day, int64_t frame,
                   const Detection& det) {
  int64_t track = -1;
  double best = 0.3;
  for (const blazeit::GroundTruthObject& obj : day.GroundTruth(frame)) {
    if (obj.class_id != det.class_id) continue;
    const double iou = blazeit::Iou(obj.rect, det.rect);
    if (iou >= best) {
      best = iou;
      track = obj.track_id;
    }
  }
  return track;
}

bool TrackVisible(const blazeit::SyntheticVideo& day, int64_t frame,
                  int64_t track) {
  for (const blazeit::GroundTruthObject& obj : day.GroundTruth(frame)) {
    if (obj.track_id == track) return true;
  }
  return false;
}

/// Frames the ground-truth track is visible in around `frame`, counted up
/// to `enough`.
int64_t TrackFrames(const blazeit::SyntheticVideo& day, int64_t frame,
                    int64_t track, int64_t enough) {
  int64_t frames = 1;
  for (int64_t t = frame - 1; t >= 0 && frames < enough; --t) {
    if (!TrackVisible(day, t, track)) break;
    ++frames;
  }
  for (int64_t t = frame + 1; t < day.num_frames() && frames < enough; ++t) {
    if (!TrackVisible(day, t, track)) break;
    ++frames;
  }
  return frames;
}

/// The object-level predicate of a selection row, re-evaluated from the
/// detection, the rendered frame and the track's ground truth.
std::string SelectionVerdict(const StreamData& stream,
                             const AnalyzedQuery& query,
                             const blazeit::FrameWindow& window,
                             const blazeit::UdfRegistry& udfs,
                             const SelectionRow& row) {
  const Detection& det = row.detection;
  if (row.frame < window.begin || row.frame >= window.end) {
    return FrameError("row outside the query window", row.frame);
  }
  if (det.class_id != query.sel_class) {
    return FrameError("row of the wrong class", row.frame);
  }
  bool detected = false;
  for (const Detection& d : stream.test_labels->DetectionsAt(row.frame)) {
    detected = detected || SameDetection(d, det);
  }
  if (!detected) return FrameError("row is not a detection", row.frame);
  if (query.has_roi &&
      !query.roi.Contains(det.rect.CenterX(), det.rect.CenterY())) {
    return FrameError("row outside the ROI", row.frame);
  }
  if (query.min_area_px > 0 &&
      blazeit::PixelArea(det.rect, stream.config.width,
                         stream.config.height) < query.min_area_px) {
    return FrameError("row below the area bound", row.frame);
  }
  for (const blazeit::Predicate& pred : query.udf_predicates) {
    if (pred.kind != blazeit::Predicate::Kind::kUdf) continue;
    auto udf = udfs.Get(pred.name);
    if (!udf.ok()) return "unknown UDF " + pred.name;
    const blazeit::Image frame = stream.test_day->RenderFrameRegion(
        row.frame, blazeit::Rect{0, 0, 1, 1}, kUdfRaster, kUdfRaster);
    if (!blazeit::EvalCmp(udf.value()(frame.Crop(det.rect)), pred.op,
                          pred.value)) {
      return FrameError(("row fails " + pred.name).c_str(), row.frame);
    }
  }
  if (query.persistence_frames > 1) {
    const int64_t track = MatchTrack(*stream.test_day, row.frame, det);
    if (track < 0) return FrameError("row matches no track", row.frame);
    if (TrackFrames(*stream.test_day, row.frame, track,
                    query.persistence_frames) < query.persistence_frames) {
      return FrameError("row's track is shorter than its HAVING count",
                        row.frame);
    }
  }
  return "";
}

/// Per-frame predicate of an exhaustive scan, from the labeled set.
bool FullScanMatches(const StreamData& stream, const AnalyzedQuery& query,
                     int64_t t) {
  for (const blazeit::ClassCountRequirement& req : query.requirements) {
    if (stream.test_labels->Counts(req.class_id)[static_cast<size_t>(t)] <
        req.min_count) {
      return false;
    }
  }
  const bool filter = query.sel_class >= 0 || query.has_roi ||
                      query.min_area_px > 0;
  if (!filter) {
    return !query.requirements.empty() ||
           !stream.test_labels->DetectionsAt(t).empty();
  }
  for (const Detection& det : stream.test_labels->DetectionsAt(t)) {
    if (query.sel_class >= 0 && det.class_id != query.sel_class) continue;
    if (query.has_roi &&
        !query.roi.Contains(det.rect.CenterX(), det.rect.CenterY())) {
      continue;
    }
    if (query.min_area_px > 0 &&
        blazeit::PixelArea(det.rect, stream.config.width,
                           stream.config.height) < query.min_area_px) {
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace

std::string CheckAggregate(double estimate, double exact, double error,
                           double scale) {
  const double bound = 2.0 * error * scale;
  if (!std::isfinite(estimate) || std::fabs(estimate - exact) > bound) {
    return Format("estimate %.6g is more than %.6g from the exact %.6g",
                  estimate, bound, exact);
  }
  return "";
}

int64_t MaxSeparatedMatches(const std::vector<char>& match, int64_t begin,
                            int64_t end, int64_t gap) {
  int64_t count = 0;
  int64_t next_allowed = begin;
  for (int64_t t = begin; t < end; ++t) {
    if (t < next_allowed || !match[static_cast<size_t>(t)]) continue;
    ++count;
    next_allowed = t + std::max<int64_t>(gap, 1);
  }
  return count;
}

std::string CheckScrub(const std::vector<int64_t>& frames,
                       const std::vector<char>& match, int64_t begin,
                       int64_t end, int64_t limit, int64_t gap) {
  const int64_t n = static_cast<int64_t>(frames.size());
  if (n > limit) return "more frames than LIMIT";
  for (int64_t f : frames) {
    if (f < begin || f >= end) return FrameError("frame outside window", f);
    if (!match[static_cast<size_t>(f)]) {
      return FrameError("frame does not match", f);
    }
  }
  std::vector<int64_t> sorted = frames;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] - sorted[i - 1] < std::max<int64_t>(gap, 1)) {
      return FrameError("frames closer than GAP", sorted[i]);
    }
  }
  const int64_t available = MaxSeparatedMatches(match, begin, end, gap);
  if (n < std::min(limit, available)) {
    return "returned " + std::to_string(n) + " frames, but the labels hold " +
           std::to_string(available) + " GAP-separated matches";
  }
  return "";
}

std::string CheckExactFrames(const std::vector<int64_t>& got,
                             const std::vector<int64_t>& want) {
  std::vector<int64_t> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < std::max(sorted.size(), want.size()); ++i) {
    if (i >= sorted.size()) return FrameError("frame missing", want[i]);
    if (i >= want.size()) return FrameError("extra frame", sorted[i]);
    if (sorted[i] != want[i]) {
      return FrameError(sorted[i] < want[i] ? "extra frame" : "frame missing",
                        std::min(sorted[i], want[i]));
    }
  }
  return "";
}

std::string CheckBinary(const std::vector<int64_t>& frames,
                        const std::vector<char>& positive, int64_t begin,
                        int64_t end, double fnr, double fpr) {
  std::set<int64_t> returned;
  for (int64_t f : frames) {
    if (f < begin || f >= end) return FrameError("frame outside window", f);
    if (!returned.insert(f).second) return FrameError("duplicate frame", f);
  }
  int64_t positives = 0, negatives = 0, missed = 0, false_hits = 0;
  for (int64_t t = begin; t < end; ++t) {
    const bool pos = positive[static_cast<size_t>(t)] != 0;
    const bool hit = returned.count(t) > 0;
    positives += pos ? 1 : 0;
    negatives += pos ? 0 : 1;
    missed += (pos && !hit) ? 1 : 0;
    false_hits += (!pos && hit) ? 1 : 0;
  }
  const double got_fnr =
      positives > 0 ? static_cast<double>(missed) / positives : 0.0;
  const double got_fpr =
      negatives > 0 ? static_cast<double>(false_hits) / negatives : 0.0;
  if (got_fnr > fnr + kBinaryRateSlack) {
    return Format("FNR %.4f over target %.4f + slack %.2f", got_fnr, fnr,
                  kBinaryRateSlack);
  }
  if (got_fpr > fpr + kBinaryRateSlack) {
    return Format("FPR %.4f over target %.4f + slack %.2f", got_fpr, fpr,
                  kBinaryRateSlack);
  }
  return "";
}

std::string CheckCountDistinct(double estimate, int64_t truth) {
  const double bound = kCountDistinctTolerance * static_cast<double>(truth);
  if (std::fabs(estimate - static_cast<double>(truth)) > bound) {
    return Format("count %.6g is more than %.6g from %.6g ground-truth tracks",
                  estimate, bound, static_cast<double>(truth));
  }
  return "";
}

std::string CheckSelectionRows(
    const std::vector<SelectionRow>& rows,
    const std::function<std::string(const SelectionRow&)>& verdict) {
  for (const SelectionRow& row : rows) {
    std::string why = verdict(row);
    if (!why.empty()) return why;
  }
  return "";
}

std::string CheckSameAnswer(const QueryOutput& got, const QueryOutput& want) {
  if (got.kind != want.kind || got.plan != want.plan) return "plan differs";
  if (!SameBits(got.scalar, want.scalar)) return "scalar differs";
  if (got.frames != want.frames) return "frames differ";
  if (got.rows.size() != want.rows.size()) return "row count differs";
  for (size_t i = 0; i < got.rows.size(); ++i) {
    if (got.rows[i].frame != want.rows[i].frame ||
        !SameDetection(got.rows[i].detection, want.rows[i].detection)) {
      return "row " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckIdentical(const QueryOutput& got, const QueryOutput& want) {
  std::string answer = CheckSameAnswer(got, want);
  if (!answer.empty()) return answer;
  const blazeit::CostMeter& a = got.cost;
  const blazeit::CostMeter& b = want.cost;
  if (a.detection_calls() != b.detection_calls() ||
      a.specialized_nn_calls() != b.specialized_nn_calls() ||
      a.filter_calls() != b.filter_calls() ||
      a.training_frames() != b.training_frames() ||
      !SameBits(a.TotalSeconds(), b.TotalSeconds()) ||
      !SameBits(a.detection_seconds(), b.detection_seconds())) {
    return "simulated cost differs";
  }
  return "";
}

std::string CheckQueryOutput(blazeit::VideoCatalog* catalog,
                             const std::string& frameql,
                             const QueryOutput& out,
                             const blazeit::UdfRegistry& udfs) {
  auto parsed = blazeit::ParseFrameQL(frameql);
  if (!parsed.ok()) return parsed.status().ToString();
  auto found = catalog->GetStream(parsed.value().table);
  if (!found.ok()) return found.status().ToString();
  StreamData* stream = found.value();
  auto analyzed = blazeit::AnalyzeQuery(parsed.value(), stream->config);
  if (!analyzed.ok()) return analyzed.status().ToString();
  const AnalyzedQuery& query = analyzed.value();
  auto resolved = blazeit::ResolveFrameWindow(
      query, stream->config.fps, stream->test_day->num_frames());
  if (!resolved.ok()) return resolved.status().ToString();
  const blazeit::FrameWindow window = resolved.value();
  const blazeit::LabeledSet& labels = *stream->test_labels;

  switch (query.kind) {
    case blazeit::QueryKind::kAggregate: {
      const std::vector<int>& counts = labels.Counts(query.agg_class);
      double total = 0.0;
      for (int64_t t = window.begin; t < window.end; ++t) {
        total += counts[static_cast<size_t>(t)];
      }
      const double frames = static_cast<double>(window.end - window.begin);
      return query.scale_to_total
                 ? CheckAggregate(out.scalar, total, query.error, frames)
                 : CheckAggregate(out.scalar, total / frames, query.error,
                                  1.0);
    }
    case blazeit::QueryKind::kCountDistinct: {
      std::set<int64_t> tracks;
      for (int64_t t = window.begin; t < window.end; ++t) {
        for (const auto& obj : stream->test_day->GroundTruth(t)) {
          if (obj.class_id == query.agg_class) tracks.insert(obj.track_id);
        }
      }
      return CheckCountDistinct(out.scalar,
                                static_cast<int64_t>(tracks.size()));
    }
    case blazeit::QueryKind::kScrubbing: {
      std::vector<char> match(
          static_cast<size_t>(stream->test_day->num_frames()), 1);
      for (const auto& req : query.requirements) {
        const std::vector<int>& counts = labels.Counts(req.class_id);
        for (size_t t = 0; t < match.size(); ++t) {
          if (counts[t] < req.min_count) match[t] = 0;
        }
      }
      return CheckScrub(out.frames, match, window.begin, window.end,
                        query.limit, query.gap);
    }
    case blazeit::QueryKind::kSelection:
      return CheckSelectionRows(out.rows, [&](const SelectionRow& row) {
        return SelectionVerdict(*stream, query, window, udfs, row);
      });
    case blazeit::QueryKind::kBinarySelect: {
      const std::vector<int>& counts = labels.Counts(query.sel_class);
      std::vector<char> positive(counts.size());
      for (size_t t = 0; t < counts.size(); ++t) positive[t] = counts[t] > 0;
      return CheckBinary(out.frames, positive, window.begin, window.end,
                         query.fnr, query.fpr);
    }
    case blazeit::QueryKind::kExhaustive: {
      std::vector<int64_t> want;
      for (int64_t t = window.begin; t < window.end; ++t) {
        if (FullScanMatches(*stream, query, t)) want.push_back(t);
      }
      return CheckExactFrames(out.frames, want);
    }
  }
  return "unhandled query kind";
}

}  // namespace perfbench
