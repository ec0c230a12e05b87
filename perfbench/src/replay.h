// Outside the timed window: re-runs sampled requests through a lone
// in-process PQCacheEngine and compares its greedy tokens with the tokens
// the server streamed (bit-identity is the repository's invariant). On a
// traced run it also times each layer's public functions at the sampled
// requests' shapes, from this file, around the calls into the library.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/common/status.h"
#include "src/core/pqcache_engine.h"
#include "src/core/prefix_registry.h"
#include "src/llm/transformer.h"

namespace perfbench {

class Replay {
 public:
  explicit Replay(bool traced);
  ~Replay();

  /// Runs `request` through a lone engine, counts tokens that differ from
  /// `served` (a length difference counts once per missing token), and on a
  /// traced run records layer timings.
  pqcache::Status Run(const Request& request,
                      const std::vector<int32_t>& served);

  size_t checked() const { return checked_; }
  size_t token_mismatches() const { return token_mismatches_; }

  /// Per-layer metrics (traced runs): name -> value.
  std::map<std::string, double> LayerMetrics() const;

 private:
  void TimeLlm(const Request& request);
  void TimeSelection(const pqcache::PQCacheEngine& engine);
  void TimeTraining(const pqcache::PQCacheEngine& engine,
                    size_t prompt_tokens);
  void Add(const char* name, double value) { samples_[name].push_back(value); }

  bool traced_;
  size_t checked_ = 0;
  size_t token_mismatches_ = 0;
  std::unique_ptr<pqcache::PrefixRegistry> registry_;
  std::unique_ptr<pqcache::TransformerModel> model_;
  std::map<std::string, std::vector<double>> samples_;
  double pq_train_seconds_ = 0;
  double prefill_wall_seconds_ = 0;
  uint64_t selected_ = 0;
  uint64_t decode_steps_ = 0;
  double fetched_bytes_ = 0;
  uint64_t query_seed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
