#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double p,
                                 size_t min_beyond) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0 || p >= 100) return std::nullopt;
  // 1-based nearest rank: the smallest sample with at least p% at or below.
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return std::nan("");
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void AppendTokenGaps(const std::vector<double>& arrival_seconds,
                     std::vector<double>* gaps_ms) {
  const std::vector<double>& t = arrival_seconds;
  size_t i = 1;
  while (i < t.size() && t[i] == t[0]) ++i;
  while (i < t.size()) {
    size_t end = i + 1;
    while (end < t.size() && t[end] == t[i]) ++end;
    const double k = static_cast<double>(end - i);
    gaps_ms->insert(gaps_ms->end(), end - i, (t[i] - t[i - 1]) * 1e3 / k);
    i = end;
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
