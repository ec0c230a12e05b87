#include "perfbench/src/config.h"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <vector>
#include <sstream>

#include "perfbench/src/stats.h"
#include "src/tensor/simd.h"

namespace perfbench {

CpuPlan PlanCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.size() < 3) return {cpus.size(), cpus, cpus};
  // Not the first CPU: it takes most of the host's interrupts and
  // housekeeping, and a generator stalled there sends late.
  return {cpus.size(), {cpus.back()}, {cpus.begin(), cpus.end() - 1}};
}

void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

size_t PoolThreads(size_t server_cpus) {
  return server_cpus > 1 ? server_cpus - 1 : 1;
}

size_t GeneratorConnections(const CpuPlan& plan) {
  return std::clamp<size_t>(plan.host_cpus, 1, 4);
}

pqcache::PQCacheEngineOptions BenchEngineOptions() {
  pqcache::PQCacheEngineOptions options;
  options.model = pqcache::ModelConfig::Tiny();
  options.pq_span_tokens = kPrefixBlockTokens;
  options.cache.capacity_tokens = kCacheCapacityTokens;
  options.cache.block_tokens = kCacheBlockTokens;
  return options;
}

pqcache::ServeOptions BenchServeOptions(pqcache::ThreadPool* pool) {
  pqcache::ServeOptions serve;
  serve.engine = BenchEngineOptions();
  serve.max_sessions = kDecodeSlots;
  serve.max_queue = kMaxQueue;
  serve.pool = pool;
  serve.enable_prefix_sharing = true;
  serve.prefix.block_tokens = kPrefixBlockTokens;
  serve.prefix.max_nodes = kPrefixMaxNodes;
  return serve;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string FingerprintJson(const CpuPlan& plan) {
  const pqcache::PQCacheEngineOptions engine = BenchEngineOptions();
  std::ostringstream os;
  os << "{\"nproc\": " << plan.host_cpus << ", \"cpu_model\": "
     << JsonString(CpuModel()) << ", \"simd\": "
     << JsonString(pqcache::simd::LevelName(pqcache::simd::ActiveLevel()))
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"pqcache_native\": " << (PERFBENCH_NATIVE ? "true" : "false")
     << ", \"compiler\": " << JsonString(__VERSION__)
     << ", \"server_cpus\": " << plan.server.size()
     << ", \"generator_cpus\": " << plan.generator.size()
     << ", \"pool_threads\": " << PoolThreads(plan.server.size())
     << ", \"connections\": " << GeneratorConnections(plan)
     << ", \"decode_slots\": " << kDecodeSlots
     << ", \"pq\": " << JsonString("m=" + std::to_string(engine.pq_partitions) +
                                   ",b=" + std::to_string(engine.pq_bits))
     << "}";
  return os.str();
}

}  // namespace perfbench
