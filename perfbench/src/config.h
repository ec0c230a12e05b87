// The one serving configuration every workload runs under, and the host /
// build fingerprint recorded with every result.
#ifndef PERFBENCH_SRC_CONFIG_H_
#define PERFBENCH_SRC_CONFIG_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/threadpool.h"
#include "src/core/pqcache_engine.h"
#include "src/serve/session_manager.h"

namespace perfbench {

/// Prefix-registry block size; the engine's PQ span length equals it, so
/// span and block boundaries coincide.
inline constexpr size_t kPrefixBlockTokens = 128;
/// Registry retention: under half of the rag_prefix template set's
/// blocks, so only the hot (Zipf-popular) templates stay resident.
inline constexpr size_t kPrefixMaxNodes = 128;
/// Block cache per (layer, kv-head): smaller than every long_doc context.
inline constexpr size_t kCacheCapacityTokens = 512;
inline constexpr size_t kCacheBlockTokens = 32;
/// Decode slots and queue bound of the server.
inline constexpr size_t kDecodeSlots = 8;
inline constexpr size_t kMaxQueue = 512;

/// CPU placement: on a host with at least three CPUs the generator keeps
/// the last CPU of the affinity set and the server gets the rest, so the
/// two processes never preempt each other; smaller hosts share all CPUs.
struct CpuPlan {
  size_t host_cpus = 0;  ///< CPUs in this process's affinity set (nproc).
  std::vector<int> generator;
  std::vector<int> server;
};
CpuPlan PlanCpus();
/// Restricts the calling process (and children it forks later) to `cpus`.
void PinTo(const std::vector<int>& cpus);
/// Server worker pool on `server_cpus` CPUs: one fewer (the scheduler thread
/// joins every ParallelFor), at least one — never more than nproc.
size_t PoolThreads(size_t server_cpus);
/// Generator connections: at most nproc.
size_t GeneratorConnections(const CpuPlan& plan);

/// Tiny model, engine-default PQ shape (m=2, b=6, token_ratio=0.2), PQ spans
/// of one registry block, and the bench block cache.
pqcache::PQCacheEngineOptions BenchEngineOptions();

/// The shared serving configuration: prefix sharing on (in-flight dedup at
/// its default), bench engine template, `pool` as the worker pool.
pqcache::ServeOptions BenchServeOptions(pqcache::ThreadPool* pool);

/// One-line JSON object describing host and build: nproc, CPU model, SIMD
/// tier, build type, PQCACHE_NATIVE, compiler, CPU placement, pool size and
/// connections.
std::string FingerprintJson(const CpuPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CONFIG_H_
