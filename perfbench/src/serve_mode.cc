#include "perfbench/src/serve_mode.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/config.h"
#include "perfbench/src/stats.h"
#include "src/net/server.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace {

void PrintValue(const char* name, double value) {
  std::printf("%s %s\n", name, JsonNumber(value).c_str());
}

void PrintPercentile(const char* name, const std::vector<double>& samples,
                     double p) {
  const auto v = Percentile(samples, p);
  PrintValue(name, v.has_value() ? *v : std::nan(""));
}

constexpr double kMiB = 1024.0 * 1024.0;

// Counters readable while the server runs, snapshotted when the window
// starts so the warm-up's share can be taken off.
struct Snapshot {
  pqcache::net::NetStats net;
  pqcache::PrefixRegistry::Stats prefix;
};

Snapshot Take(pqcache::net::Server& server) {
  pqcache::PrefixRegistry* registry = server.manager().prefix_registry();
  return {server.net_stats(), registry != nullptr
                                  ? registry->stats()
                                  : pqcache::PrefixRegistry::Stats{}};
}

// Serving-side counters of the timed window: per-record values from the
// window's records, net and registry counters as the change since `start`.
// ServerStats is readable only after Shutdown(), so its peaks and
// prefix_dedup_deferrals cover the server's whole life (see README.md).
void PrintStats(pqcache::net::Server& server, const Snapshot& start) {
  const pqcache::ServerStats& stats = server.serve_stats();
  std::vector<double> queue_ms, prefill_ms, step_ms;
  double prompt_tokens = 0, shared_tokens = 0;
  double lookups = 0, hits = 0, retries = 0, records = 0;
  double preempted = 0, failed = 0, shed = 0;
  for (const pqcache::SessionRecord& r : stats.sessions) {
    if (r.tag != kWindowTag) continue;
    ++records;
    retries += r.step_retries;
    preempted += r.preempted ? 1 : 0;
    failed += r.failed ? 1 : 0;
    shed += r.shed ? 1 : 0;
    if (r.generated_tokens == 0) continue;
    queue_ms.push_back(r.queue_wait_seconds * 1e3);
    if (r.prefill_seconds > 0) prefill_ms.push_back(r.prefill_seconds * 1e3);
    for (const double s : r.step_seconds) step_ms.push_back(s * 1e3);
    prompt_tokens += static_cast<double>(r.prompt_tokens);
    shared_tokens += static_cast<double>(r.prefix_shared_tokens);
    lookups += static_cast<double>(r.cache_token_lookups);
    hits += static_cast<double>(r.cache_token_hits);
  }
  PrintValue("records", records);
  PrintPercentile("serve.queue_wait_ms_p50", queue_ms, 50);
  PrintPercentile("serve.queue_wait_ms_p75", queue_ms, 75);
  PrintValue("serve.prefill_ms_p50", Median(prefill_ms));
  PrintValue("serve.step_ms_p50", Median(step_ms));
  PrintPercentile("serve.step_ms_p99", step_ms, 99);
  PrintValue("serve.peak_active",
             static_cast<double>(stats.peak_active_sessions));
  PrintValue("serve.step_retries", retries);
  PrintValue("serve.preempted", preempted);
  PrintValue("serve.failed", failed);
  PrintValue("serve.shed", shed);
  PrintValue("prefix.token_hit_ratio",
             prompt_tokens == 0 ? 0 : shared_tokens / prompt_tokens);
  PrintValue("prefix.dedup_deferrals",
             static_cast<double>(stats.prefix_dedup_deferrals));
  PrintValue("cache.token_hit_rate", lookups == 0 ? 0 : hits / lookups);
  PrintValue("mem.peak_gpu_mb", static_cast<double>(stats.peak_gpu_bytes) / kMiB);
  const Snapshot end = Take(server);
  PrintValue("prefix.evictions",
             static_cast<double>(end.prefix.evictions - start.prefix.evictions));
  PrintValue("mem.prefix_resident_mb",
             static_cast<double>(end.prefix.resident_gpu_bytes +
                                 end.prefix.resident_cpu_bytes) /
                 kMiB);
  PrintValue("net.backpressure_suspends",
             static_cast<double>(end.net.backpressure_suspends -
                                 start.net.backpressure_suspends));
  PrintValue("net.protocol_errors",
             static_cast<double>(end.net.protocol_errors -
                                 start.net.protocol_errors));
}

}  // namespace

int RunServeMode(int argc, char** argv) {
  std::string trace_out;
  for (int i = 0; i < argc; ++i) {
    const char* flag = "--trace-out=";
    if (std::strncmp(argv[i], flag, std::strlen(flag)) == 0) {
      trace_out = argv[i] + std::strlen(flag);
    } else {
      std::fprintf(stderr, "perfbench serve: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  pqcache::ThreadPool pool(PoolThreads(PlanCpus().host_cpus));
  const pqcache::ServeOptions serve = BenchServeOptions(&pool);
  // The tracer is armed here rather than through ServeOptions::trace_path:
  // trace_path exports on every drain, and this server drains each time
  // its queue empties, so the export would repeat inside the timed window.
  if (!trace_out.empty()) pqcache::obs::Tracer::Global().Start();
  auto server = pqcache::net::Server::Start(serve, pqcache::net::ServerOptions{});
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench serve: start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("ready port=%u\n", server.value()->tcp_port());
  std::fflush(stdout);

  // Serve until the parent closes our stdin (or dies), snapshotting the
  // counters when it marks the start of the window.
  Snapshot start = Take(*server.value());
  std::string pending;
  char buf[256];
  ssize_t n;
  while ((n = read(STDIN_FILENO, buf, sizeof(buf))) > 0) {
    pending.append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      if (pending.compare(0, nl, kWindowMarker) == 0) start = Take(*server.value());
      pending.erase(0, nl + 1);
    }
  }

  const pqcache::Status shutdown = server.value()->Shutdown();
  if (!trace_out.empty()) {
    pqcache::obs::Tracer::Global().Stop();
    const pqcache::Status exported =
        pqcache::obs::Tracer::Global().ExportChromeTrace(trace_out);
    if (!exported.ok()) {
      std::fprintf(stderr, "perfbench serve: trace export failed: %s\n",
                   exported.ToString().c_str());
    }
  }
  PrintStats(*server.value(), start);
  std::printf("end\n");
  std::fflush(stdout);
  return shutdown.ok() ? 0 : 1;
}

}  // namespace perfbench
