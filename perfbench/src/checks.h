// Output checks of the FrameQL benchmark. Every reference answer is
// computed apart from the executors, from public ground truth: the test
// day's LabeledSet (Counts, DetectionsAt) and SyntheticVideo::GroundTruth.
//
// Each check returns an empty string when the output passes and a
// one-line reason when it does not. The plain-data checks below are what
// checks_test.cc drives with deliberately wrong outputs; CheckQueryOutput
// derives their reference data for one executed query.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/udf.h"

namespace perfbench {

/// Binary detection may exceed its FNR / FPR targets by this much on the
/// test day: the thresholds are calibrated on the held-out day.
inline constexpr double kBinaryRateSlack = 0.05;

/// Count-distinct may differ from the number of distinct ground-truth
/// track ids in its window by this share: the tracker re-identifies
/// objects from noisy detections, so it splits and merges some tracks.
inline constexpr double kCountDistinctTolerance = 0.25;

/// Aggregate: |estimate - exact| <= 2 * error * scale, where scale is 1 for
/// FCOUNT and the window's frame count for COUNT(*). A correct 95%
/// estimator misses `error` on its own now and then, but almost never 2x.
std::string CheckAggregate(double estimate, double exact, double error,
                           double scale);

/// Largest number of matching frames in [begin, end) that are pairwise at
/// least `gap` apart (greedy from the left is optimal).
int64_t MaxSeparatedMatches(const std::vector<char>& match, int64_t begin,
                            int64_t end, int64_t gap);

/// Scrubbing: every frame matches, lies in [begin, end) and is at least
/// `gap` from every other; at most `limit` frames, and exactly `limit`
/// whenever `match` holds that many gap-separated frames in the window.
std::string CheckScrub(const std::vector<int64_t>& frames,
                       const std::vector<char>& match, int64_t begin,
                       int64_t end, int64_t limit, int64_t gap);

/// Full scan: the returned frames are exactly `want` (ascending).
std::string CheckExactFrames(const std::vector<int64_t>& got,
                             const std::vector<int64_t>& want);

/// Binary detection over [begin, end): frame-level false-negative and
/// false-positive rates against `positive` stay within the targets plus
/// kBinaryRateSlack, and every frame lies in the window.
std::string CheckBinary(const std::vector<int64_t>& frames,
                        const std::vector<char>& positive, int64_t begin,
                        int64_t end, double fnr, double fpr);

/// Count-distinct within kCountDistinctTolerance of the truth.
std::string CheckCountDistinct(double estimate, int64_t truth);

/// Content selection: `verdict` explains why a row fails its predicates
/// (empty when it passes); the first failing row is reported.
std::string CheckSelectionRows(
    const std::vector<blazeit::SelectionRow>& rows,
    const std::function<std::string(const blazeit::SelectionRow&)>& verdict);

/// Bit-identity of two answers: plan, scalar, frames and rows.
std::string CheckSameAnswer(const blazeit::QueryOutput& got,
                            const blazeit::QueryOutput& want);

/// CheckSameAnswer plus bit-identity of the simulated CostMeter.
std::string CheckIdentical(const blazeit::QueryOutput& got,
                           const blazeit::QueryOutput& want);

/// Checks one executed query against references derived from its
/// stream's public ground truth (the check matching its QueryKind).
std::string CheckQueryOutput(blazeit::VideoCatalog* catalog,
                             const std::string& frameql,
                             const blazeit::QueryOutput& out,
                             const blazeit::UdfRegistry& udfs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
