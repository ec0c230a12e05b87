// perfbench: one measured run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   perfbench serve [--trace-out=FILE]     (the server process; see
//                                           serve_mode.h)
//
// A run launches the bench-owned server (this binary in serve mode) and
// warms it kSetupRepeats times, timing each launch-to-warm set-up and
// keeping the last server for the timed window. The window offers the
// workload's seeded schedule open-loop for S seconds and then waits for
// every stream to end. The server is drained and its serving-side counters
// collected; then sampled streams are re-run through a lone engine and
// compared token for token. With --trace 1 the server also arms the span
// tracer and the replay times each layer's functions.
//
// The run prints one JSON line: fingerprint, counts, validity, the
// end-to-end metrics and (traced) the per-layer metrics. perfbench/run.py
// turns it into the benchmark's result line. Exit code 0 means the run
// happened (its `correct` field says whether it passed); anything else is
// an infrastructure failure.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/config.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/serve_mode.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

using pqcache::Result;
using pqcache::Status;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Seconds the server may take to print its ready line / to exit.
constexpr double kLaunchTimeoutSeconds = 30;
constexpr double kStopTimeoutSeconds = 60;
// Seconds after the last due send the window waits for streams to end.
constexpr double kDrainTimeoutSeconds = 60;
// A run whose generator sent late by more than this at p99 is invalid.
constexpr double kMaxSendLagP99Ms = 20;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ttft_p50_ms", "ms"},     {"ttft_p75_ms", "ms"},
    {"tpot_p50_ms", "ms"},     {"tpot_mean_ms", "ms"},
    {"tpot_p99_ms", "ms"},
    {"slo_attainment", "ratio"}, {"cpu_ms_per_req", "ms"},
    {"peak_rss_mb", "MiB"},    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.submit_ack_ms_p50", "ms"},
    {"net.frames_per_req", "count"},
    {"net.backpressure_suspends", "count"},
    {"net.protocol_errors", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p75", "ms"},
    {"serve.prefill_ms_p50", "ms"},
    {"serve.step_ms_p50", "ms"},
    {"serve.step_ms_p99", "ms"},
    {"serve.delivery_ms_p50", "ms"},
    {"serve.peak_active", "count"},
    {"serve.refused", "count"},
    {"serve.step_retries", "count"},
    {"serve.preempted", "count"},
    {"engine.prefill_ms_p50", "ms"},
    {"engine.decode_step_ms", "ms"},
    {"engine.pq_train_share", "ratio"},
    {"engine.selected_per_step", "count"},
    {"engine.fetch_kb_per_step", "KiB"},
    {"prefix.token_hit_ratio", "ratio"},
    {"prefix.dedup_deferrals", "count"},
    {"prefix.evictions", "count"},
    {"prefix.lookup_us", "us"},
    {"prefix.publish_us", "us"},
    {"llm.decode_dense_ms", "ms"},
    {"llm.prefill_ms_p50", "ms"},
    {"pq.lut_us", "us"},
    {"pq.adc_us", "us"},
    {"pq.search_us", "us"},
    {"pq.encode_us_per_ktok", "us"},
    {"kmeans.train_ms_per_head", "ms"},
    {"tensor.topk_us", "us"},
    {"tensor.topk_share", "ratio"},
    {"cache.token_hit_rate", "ratio"},
    {"cache.probe_us", "us"},
    {"kv.gather_attend_us", "us"},
    {"mem.peak_gpu_mb", "MiB"},
    {"mem.prefix_resident_mb", "MiB"},
    {"gen.send_lag_p99_ms", "ms"},
};

// ---------------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Launch(
      const std::string& trace_out, const std::vector<int>& cpus) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0) return Errno("pipe2");
    if (pipe2(out, O_CLOEXEC) != 0) {
      close(in[0]);
      close(in[1]);
      return Errno("pipe2");
    }
    const pid_t pid = fork();
    if (pid < 0) return Errno("fork");
    if (pid == 0) {
      PinTo(cpus);
      dup2(in[0], STDIN_FILENO);
      dup2(out[1], STDOUT_FILENO);
      std::string flag = "--trace-out=" + trace_out;
      std::vector<char*> args = {const_cast<char*>("perfbench"),
                                 const_cast<char*>("serve")};
      if (!trace_out.empty()) args.push_back(flag.data());
      args.push_back(nullptr);
      execv("/proc/self/exe", args.data());
      _exit(127);
    }
    close(in[0]);
    close(out[1]);
    std::unique_ptr<ServerProcess> server(new ServerProcess());
    server->pid_ = pid;
    server->stdin_fd_ = in[1];
    server->stdout_fd_ = out[0];
    std::string line;
    PQC_RETURN_IF_ERROR(
        server->ReadLine(NowSeconds() + kLaunchTimeoutSeconds, &line));
    const char* prefix = "ready port=";
    if (line.rfind(prefix, 0) != 0) {
      return Status::Internal("server said '" + line + "' instead of ready");
    }
    server->port_ = static_cast<uint16_t>(
        std::atoi(line.c_str() + std::strlen(prefix)));
    return server;
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// Tells the server the warm-up is over and the timed window starts.
  Status MarkWindow() {
    const std::string line = std::string(kWindowMarker) + "\n";
    if (write(stdin_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return Errno("write");
    }
    return Status::OK();
  }

  /// Closes the server's stdin (its stop signal), reads its "name value"
  /// stat lines up to "end", and reaps it.
  Status Stop(std::map<std::string, double>* stats) {
    close(stdin_fd_);
    stdin_fd_ = -1;
    const double deadline = NowSeconds() + kStopTimeoutSeconds;
    for (;;) {
      std::string line;
      PQC_RETURN_IF_ERROR(ReadLine(deadline, &line));
      if (line == "end") break;
      std::istringstream is(line);
      std::string name, value;
      is >> name >> value;
      (*stats)[name] = value == "null" ? std::nan("") : std::atof(value.c_str());
    }
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (waitpid(pid, &status, 0) != pid) return Errno("waitpid");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("server exited abnormally");
    }
    return Status::OK();
  }

 private:
  ServerProcess() = default;

  static Status Errno(const char* what) {
    return Status::Internal(std::string(what) + ": " + std::strerror(errno));
  }

  Status ReadLine(double deadline, std::string* line) {
    for (;;) {
      const size_t nl = buffered_.find('\n');
      if (nl != std::string::npos) {
        *line = buffered_.substr(0, nl);
        buffered_.erase(0, nl + 1);
        return Status::OK();
      }
      const double left = deadline - NowSeconds();
      if (left <= 0) return Status::DeadlineExceeded("server did not answer");
      pollfd fd{stdout_fd_, POLLIN, 0};
      const int ready = poll(&fd, 1, static_cast<int>(left * 1e3) + 1);
      if (ready < 0 && errno != EINTR) return Errno("poll");
      if (ready <= 0) continue;
      char buf[4096];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n == 0) return Status::Unavailable("server exited");
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("read");
      }
      buffered_.append(buf, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffered_;
};

// User + system CPU seconds of `pid` (all threads), from /proc/<pid>/stat.
double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return std::nan("");
  std::istringstream is(stat.substr(close_paren + 2));
  std::vector<std::string> fields;
  std::string field;
  while (is >> field) fields.push_back(field);
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  if (fields.size() < 13) return std::nan("");
  const double ticks = std::atof(fields[11].c_str()) +
                       std::atof(fields[12].c_str());
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of `pid`, in MiB.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return std::nan("");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string MetricsJson(const MetricDef* defs, size_t n,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? std::nan("") : it->second;
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " + JsonNumber(v) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

double Nan() { return std::nan(""); }

int Run(const Args& args) {
  const auto workload = ParseWorkload(args.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = Spec(*workload);
  const std::vector<Request> schedule =
      MakeSchedule(*workload, args.seed, args.seconds);
  const std::vector<Request> warmup = MakeWarmup(*workload, args.seed);
  std::string trace_out;
  if (args.trace) {
    mkdir(args.out_dir.c_str(), 0755);
    trace_out = args.out_dir + "/trace_" + spec.name + ".json";
  }
  auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    return 1;
  };

  // Set-up: launch, connect, warm. Repeated; the last server is kept.
  const CpuPlan cpus = PlanCpus();
  PinTo(cpus.generator);
  std::vector<double> setup_seconds;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadGenerator> gen;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server != nullptr) {
      gen.reset();
      std::map<std::string, double> ignored;
      const Status stopped = server->Stop(&ignored);
      if (!stopped.ok()) return fail("stopping a set-up server", stopped);
      server.reset();
    }
    const double t0 = NowSeconds();
    auto launched = ServerProcess::Launch(trace_out, cpus.server);
    if (!launched.ok()) return fail("launching the server", launched.status());
    server = std::move(launched).value();
    auto connected =
        LoadGenerator::Connect(server->port(), GeneratorConnections(cpus));
    if (!connected.ok()) return fail("connecting", connected.status());
    gen = std::move(connected).value();
    // One warm-up request at a time: sent together, they would prefill in
    // whichever rounds the scheduler batched them into, and set-up time
    // would follow that draw rather than the code.
    for (const Request& request : warmup) {
      RunResult warm;
      const Status warmed =
          gen->Run({request}, kWarmupTag, kDrainTimeoutSeconds, &warm);
      if (!warmed.ok()) return fail("warm-up", warmed);
      if (!warm.streams[0].done) {
        return fail("warm-up", Status::Internal("a warm-up request failed"));
      }
    }
    setup_seconds.push_back(NowSeconds() - t0);
  }

  // The timed window.
  const Status marked = server->MarkWindow();
  if (!marked.ok()) return fail("marking the window", marked);
  const double cpu_before = CpuSeconds(server->pid());
  RunResult run;
  const Status ran = gen->Run(schedule, kWindowTag, kDrainTimeoutSeconds, &run);
  if (!ran.ok()) return fail("timed window", ran);
  const double cpu_after = CpuSeconds(server->pid());
  const double peak_rss_mb = PeakRssMb(server->pid());
  gen.reset();
  std::map<std::string, double> server_stats;
  const Status stopped = server->Stop(&server_stats);
  if (!stopped.ok()) return fail("stopping the server", stopped);
  server.reset();

  // Client-side accounting.
  size_t completed = 0, errored = 0, refused = 0, shed = 0, cancelled = 0;
  size_t unfinished = 0, violations = 0, slo_met = 0;
  std::vector<double> ttft_ms, ack_ms, token_gaps_ms;
  std::string first_violation;
  for (const StreamOutcome& s : run.streams) {
    if (!s.violation.empty()) {
      ++violations;
      if (first_violation.empty()) first_violation = s.violation;
    }
    if (!s.terminal()) ++unfinished;
    if (s.errored) {
      ++errored;
      if (s.refused) ++refused;
      if (s.error == pqcache::StatusCode::kDeadlineExceeded) ++shed;
      if (s.error == pqcache::StatusCode::kCancelled) ++cancelled;
    }
    if (s.acked >= 0) ack_ms.push_back((s.acked - s.sent) * 1e3);
    const double ttft = s.token_times.empty()
                            ? Nan()
                            : (s.token_times.front() - s.due) * 1e3;
    if (!s.token_times.empty()) ttft_ms.push_back(ttft);
    AppendTokenGaps(s.token_times, &token_gaps_ms);
    if (!s.done) continue;
    ++completed;
    const double tpot =
        s.token_times.size() > 1
            ? (s.token_times.back() - s.token_times.front()) * 1e3 /
                  static_cast<double>(s.token_times.size() - 1)
            : 0;
    if (ttft <= spec.ttft_limit_ms && tpot <= spec.tpot_limit_ms) ++slo_met;
  }
  const size_t sent = schedule.size();
  const size_t failed = sent - completed;

  // Token check against lone engines (outside the timed window).
  std::vector<size_t> done_streams;
  for (size_t i = 0; i < run.streams.size(); ++i) {
    if (run.streams[i].done) done_streams.push_back(i);
  }
  pqcache::Rng pick(args.seed, /*stream=*/7);
  Replay replay(args.trace);
  for (size_t k = 0; k < spec.verify_samples && !done_streams.empty(); ++k) {
    const size_t j = static_cast<size_t>(pick.UniformInt(done_streams.size()));
    const size_t i = done_streams[j];
    done_streams.erase(done_streams.begin() + static_cast<long>(j));
    const Status checked = replay.Run(schedule[i], run.streams[i].tokens);
    if (!checked.ok()) return fail("lone-engine replay", checked);
  }

  std::map<std::string, double> e2e;
  e2e["ttft_p50_ms"] = Median(ttft_ms);
  const auto ttft_p75 = Percentile(ttft_ms, 75);
  e2e["ttft_p75_ms"] = ttft_p75.value_or(Nan());
  e2e["tpot_p50_ms"] = Median(token_gaps_ms);
  double gap_sum = 0;
  for (const double gap : token_gaps_ms) gap_sum += gap;
  e2e["tpot_mean_ms"] = token_gaps_ms.empty()
                            ? Nan()
                            : gap_sum / static_cast<double>(token_gaps_ms.size());
  const auto tpot_p99 = Percentile(token_gaps_ms, 99);
  e2e["tpot_p99_ms"] = tpot_p99.value_or(Nan());
  e2e["slo_attainment"] = static_cast<double>(slo_met) / sent;
  e2e["cpu_ms_per_req"] =
      completed == 0 ? Nan() : (cpu_after - cpu_before) * 1e3 / completed;
  e2e["peak_rss_mb"] = peak_rss_mb;
  e2e["setup_s"] = Median(setup_seconds);
  const double error_rate = static_cast<double>(failed) / sent;
  // Nearest-rank p99 of the send lag, without the ten-beyond rule: it is a
  // validity gate on the generator, not a reported tail of the server.
  const double send_lag_p99 = Percentile(run.send_lag_ms, 99, 0).value_or(0);

  std::vector<std::string> invalid;
  if (replay.token_mismatches() > 0) invalid.push_back("token mismatch");
  if (violations > 0) invalid.push_back("protocol: " + first_violation);
  if (run.drain_timed_out) invalid.push_back("window did not drain");
  if (send_lag_p99 > kMaxSendLagP99Ms) invalid.push_back("generator ran late");
  if (!ttft_p75.has_value() || !tpot_p99.has_value()) {
    invalid.push_back("too few samples for the reported tails");
  }

  std::string out = "{\"workload\": " + JsonString(spec.name);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + JsonNumber(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"correct\": " + std::string(invalid.empty() ? "true" : "false");
  out += ", \"invalid\": [";
  for (size_t i = 0; i < invalid.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(invalid[i]);
  }
  out += "], \"attempted\": " + std::to_string(sent);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"fingerprint\": " + FingerprintJson(cpus);
  out += ", \"setup_samples_s\": [";
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(setup_seconds[i]);
  }
  out += "]";
  out += ", \"workload_config\": {\"rate\": " + JsonNumber(spec.rate) +
         ", \"ttft_limit_ms\": " + JsonNumber(spec.ttft_limit_ms) +
         ", \"tpot_limit_ms\": " + JsonNumber(spec.tpot_limit_ms) +
         ", \"template_token_share\": " +
         JsonNumber(TemplateTokenShare(schedule)) + "}";
  out += ", \"counts\": {\"sent\": " + std::to_string(sent) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"errors\": " + std::to_string(errored) +
         ", \"refused\": " + std::to_string(refused) +
         ", \"shed\": " + std::to_string(shed) +
         ", \"cancelled\": " + std::to_string(cancelled) +
         ", \"unfinished\": " + std::to_string(unfinished) +
         ", \"protocol_violations\": " + std::to_string(violations) +
         ", \"error_rate\": " + JsonNumber(error_rate) +
         ", \"token_mismatches\": " + std::to_string(replay.token_mismatches()) +
         ", \"verified_streams\": " + std::to_string(replay.checked()) +
         ", \"ttft_samples\": " + std::to_string(ttft_ms.size()) +
         ", \"tpot_samples\": " + std::to_string(token_gaps_ms.size()) +
         ", \"send_lag_p99_ms\": " + JsonNumber(send_lag_p99) +
         ", \"server_records\": " + JsonNumber(server_stats["records"]) + "}";
  out += ", \"end_to_end\": " +
         MetricsJson(kEndToEnd, std::size(kEndToEnd), e2e);
  if (args.trace) {
    std::map<std::string, double> layer = replay.LayerMetrics();
    for (const auto& [name, value] : server_stats) layer[name] = value;
    // The server refuses a Submit with an Error frame before its SubmitAck;
    // the generator counts those in the window.
    layer["serve.refused"] = static_cast<double>(refused);
    layer["net.submit_ack_ms_p50"] = Median(ack_ms);
    layer["net.frames_per_req"] =
        static_cast<double>(run.frames_received) / sent;
    layer["serve.delivery_ms_p50"] =
        e2e["tpot_p50_ms"] - server_stats["serve.step_ms_p50"];
    layer["gen.send_lag_p99_ms"] = send_lag_p99;
    out += ", \"per_layer\": " +
           MetricsJson(kPerLayer, std::size(kPerLayer), layer);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return perfbench::RunServeMode(argc - 2, argv + 2);
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chat|rag_prefix|long_doc "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       perfbench serve [--trace-out=FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
