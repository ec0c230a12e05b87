// Sample statistics and JSON helpers shared by the generator, the server
// mode and the replay.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a reported percentile must have beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (0 < p < 100) of `samples`, or nullopt when fewer
/// than `min_beyond` samples rank above it: a tail is reported only when at
/// least that many samples lie beyond it (p90 needs >= 100 samples, p99 >=
/// 1000 with the default).
std::optional<double> Percentile(std::vector<double> samples, double p,
                                 size_t min_beyond = kMinSamplesBeyond);

/// Median (mean of the two middle samples for even counts); NaN when empty.
double Median(std::vector<double> samples);

/// Appends one stream's time per output token, in ms, to `gaps_ms`: each
/// delivery (the tokens after the first that arrived at one time) of k
/// tokens, `wait` after the previous delivery, adds k samples of wait / k.
/// The server hands tokens to its network thread and the generator reads
/// whatever has arrived, so a stream's tokens often land in bursts; raw
/// frame gaps would then read 0 for all but the first token of a burst,
/// and their median would follow the burst sizes rather than the decode
/// speed. Tokens delivered with the first token add nothing (their wait
/// is the TTFT). `arrival_seconds` must be non-decreasing.
void AppendTokenGaps(const std::vector<double>& arrival_seconds,
                     std::vector<double>* gaps_ms);

/// `s` as a quoted, escaped JSON string.
std::string JsonString(const std::string& s);

/// `v` as a JSON number with all significant digits ("null" for NaN/inf).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
