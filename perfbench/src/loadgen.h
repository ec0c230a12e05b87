// Open-loop load generator: one thread polls up to nproc TCP-loopback
// connections, sends each request when it is due (never waiting for earlier
// replies), and timestamps every response frame. It speaks the wire
// protocol through the public net::Append* / net::Parse* / net::Decode*
// functions, because net::Client's Submit-then-Drain() blocks, and repeats
// the client's per-stream checks: token indexes contiguous from 0, and the
// Done count equal to the tokens delivered.
#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/common/status.h"

namespace perfbench {

/// Seconds on the monotonic clock (the generator's single time base).
double NowSeconds();

/// What happened to one request. Times are seconds on NowSeconds()'s
/// clock; negative means "did not happen".
struct StreamOutcome {
  double due = -1;
  double sent = -1;
  double acked = -1;
  std::vector<int32_t> tokens;
  /// Arrival time of each token. Tokens read in one poll of the
  /// connections share one time.
  std::vector<double> token_times;
  bool done = false;      ///< Ended with a Done frame whose count matched.
  bool refused = false;   ///< Error frame before any SubmitAck.
  bool errored = false;   ///< Ended with an Error frame (refusals too).
  pqcache::StatusCode error = pqcache::StatusCode::kOk;
  /// The stream broke the protocol contract (index gap, Done count
  /// mismatch, frame after the terminal frame); the text says how.
  std::string violation;

  bool terminal() const { return done || errored || !violation.empty(); }
};

struct RunResult {
  std::vector<StreamOutcome> streams;  ///< One per request, same order.
  /// Actual send time minus due time per request, in ms.
  std::vector<double> send_lag_ms;
  uint64_t frames_received = 0;
  double origin = 0;    ///< NowSeconds() of due time 0.
  double finished = 0;  ///< NowSeconds() when the last stream ended.
  bool drain_timed_out = false;
};

class LoadGenerator {
 public:
  /// Opens `connections` TCP-loopback connections to `port` and completes
  /// the Hello handshake on each.
  static pqcache::Result<std::unique_ptr<LoadGenerator>> Connect(
      uint16_t port, size_t connections);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends `requests` open-loop: request i goes out on connection
  /// i % connections at origin + due_seconds, with `tag` as its Submit tag.
  /// Returns once every stream has ended, or `drain_timeout_seconds` after
  /// the last send. A non-OK status is a connection-level failure (the
  /// server closed or sent a connection-scope error).
  pqcache::Status Run(const std::vector<Request>& requests,
                      const std::string& tag, double drain_timeout_seconds,
                      RunResult* result);

 private:
  struct Connection;
  LoadGenerator() = default;

  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
