// Seeded request schedules for the three workloads. A schedule is a pure
// function of (workload, seed, seconds): the same arguments give the same
// arrival times, lengths, tenants and token ids.
//
// A window always offers N = round(rate * seconds) arrivals (requests, or
// bursts on rag_prefix). chat arrivals are Poisson conditioned on that
// count: exponential gaps scaled to the window. rag_prefix bursts and
// long_doc requests are sliced: one arrival placed uniformly at random in
// the middle half of each of N equal slices of the window.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kChat, kRagPrefix, kLongDoc };

/// Frozen per-workload parameters (calibrated once on the reference host;
/// see perfbench/README.md).
struct WorkloadSpec {
  Workload workload;
  const char* name;
  /// Offered load: requests/s (chat, long_doc) or bursts/s (rag_prefix).
  double rate;
  /// SLO limits: TTFT (due-send to first Token frame) and mean TPOT of one
  /// request, in milliseconds.
  double ttft_limit_ms;
  double tpot_limit_ms;
  /// Requests sent (concurrently) to warm a freshly started server.
  size_t warmup_requests;
  /// Completed streams re-run through a lone engine for the token check.
  size_t verify_samples;
};

const WorkloadSpec& Spec(Workload workload);
std::optional<Workload> ParseWorkload(const std::string& name);

/// Declared length ranges (inclusive) and medians, shared with the
/// self-tests that check the generated distributions against them.
struct LengthRange {
  size_t min = 0;
  size_t max = 0;
  double median = 0;
};
struct WorkloadShape {
  LengthRange prompt;  ///< rag_prefix: template + suffix.
  LengthRange output;
};
WorkloadShape DeclaredShape(Workload workload);

/// rag_prefix template set.
inline constexpr size_t kRagTemplates = 32;
inline constexpr size_t kRagTemplateMin = 1024;
inline constexpr size_t kRagTemplateMax = 1536;
inline constexpr size_t kRagSuffixMin = 64;
inline constexpr size_t kRagSuffixMax = 256;
inline constexpr size_t kRagBurstMin = 4;
inline constexpr size_t kRagBurstMax = 8;
/// Zipf exponent of template popularity.
inline constexpr double kRagZipfExponent = 1.5;

struct Request {
  double due_seconds = 0;  ///< Offset from the window start.
  std::string tenant;
  uint32_t weight = 1;
  std::vector<int32_t> prompt;
  size_t max_new_tokens = 0;
  int template_id = -1;        ///< rag_prefix template, -1 elsewhere.
  size_t template_tokens = 0;  ///< Leading prompt tokens from the template.
};

/// The timed window's requests, in due order.
std::vector<Request> MakeSchedule(Workload workload, uint64_t seed,
                                  double seconds);

/// Requests that warm a new server before the window (all due at 0). Drawn
/// from a different stream than the window, over the same template set.
std::vector<Request> MakeWarmup(Workload workload, uint64_t seed);

/// Share of prompt tokens copied from shared templates.
double TemplateTokenShare(const std::vector<Request>& requests);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
