#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>

#include "perfbench/src/config.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/stats.h"
#include "src/cache/block_cache.h"
#include "src/common/rng.h"
#include "src/kmeans/kmeans.h"
#include "src/pq/codebook.h"
#include "src/tensor/ops.h"

namespace perfbench {

namespace {

using pqcache::KVStore;
using pqcache::PQCacheEngine;
using pqcache::PQSpanSet;

// Timed repetitions per (store, layer function) on a traced replay.
constexpr int kRepetitions = 10;
// Decode steps timed in the llm replay.
constexpr int kLlmDecodeSteps = 16;
// Vectors encoded per pq.encode timing.
constexpr size_t kEncodeVectors = 1024;

// Attention backend wrapper that accumulates the time spent attending, so
// the rest of TransformerModel::DecodeStep (projections, FFN, logits) can
// be read as the difference.
class TimedAttention : public pqcache::AttentionBackend {
 public:
  void Attend(int layer, int q_head, std::span<const float> query,
              const KVStore& store, size_t seq_len,
              std::span<float> out) override {
    const double t0 = NowSeconds();
    inner_.Attend(layer, q_head, query, store, seq_len, out);
    seconds += NowSeconds() - t0;
  }
  double seconds = 0;

 private:
  pqcache::FullAttentionBackend inner_;
};

// Every (span, index) pair of a store's span set, closed spans first.
std::vector<const pqcache::PQIndex*> SpanIndexes(const PQSpanSet& set) {
  std::vector<const pqcache::PQIndex*> out;
  for (const pqcache::PQClosedSpan& span : set.closed()) {
    out.push_back(span.index.get());
  }
  if (set.has_open() && set.open().size() > 0) out.push_back(&set.open());
  return out;
}

// The prefix-lookup cap the serving layer uses (leaves the local window and
// the last prompt position private).
size_t LookupCap(const std::vector<int32_t>& prompt, size_t local_window) {
  size_t cap = prompt.size() > local_window ? prompt.size() - local_window : 0;
  return std::min(cap, prompt.size() - 1);
}

}  // namespace

Replay::Replay(bool traced) : traced_(traced) {
  if (traced_) {
    pqcache::PrefixRegistry::Options options =
        BenchServeOptions(nullptr).prefix;
    registry_ = std::make_unique<pqcache::PrefixRegistry>(options);
  }
}

Replay::~Replay() = default;

pqcache::Status Replay::Run(const Request& request,
                            const std::vector<int32_t>& served) {
  const pqcache::PQCacheEngineOptions options = BenchEngineOptions();
  auto created = PQCacheEngine::Create(options);
  if (!created.ok()) return created.status();
  PQCacheEngine& engine = *created.value();

  std::vector<int32_t> tokens;
  double t0 = NowSeconds();
  auto first = engine.Prefill(request.prompt);
  if (!first.ok()) return first.status();
  Add("engine.prefill_ms", (NowSeconds() - t0) * 1e3);
  tokens.push_back(first.value());

  if (traced_) {
    // The serving layer looks the prompt up at admission and publishes it
    // right after prefill; replay both at this prompt's shape.
    t0 = NowSeconds();
    auto attached = registry_->Lookup(
        request.prompt, LookupCap(request.prompt, options.local_window));
    Add("prefix.lookup_us", (NowSeconds() - t0) * 1e6);
    t0 = NowSeconds();
    PQC_RETURN_IF_ERROR(registry_->Publish(
        attached == nullptr ? nullptr : attached->deepest(), request.prompt,
        engine));
    Add("prefix.publish_us", (NowSeconds() - t0) * 1e6);
  }

  while (tokens.size() < request.max_new_tokens) {
    t0 = NowSeconds();
    auto next = engine.DecodeNext();
    if (!next.ok()) return next.status();
    Add("engine.decode_step_ms", (NowSeconds() - t0) * 1e3);
    tokens.push_back(next.value());
  }

  ++checked_;
  const size_t common = std::min(tokens.size(), served.size());
  for (size_t i = 0; i < common; ++i) {
    if (tokens[i] != served[i]) ++token_mismatches_;
  }
  token_mismatches_ += std::max(tokens.size(), served.size()) - common;

  if (traced_) {
    const pqcache::EngineStats& stats = engine.stats();
    pq_train_seconds_ += stats.pq_train_wall_seconds;
    prefill_wall_seconds_ += stats.prefill_wall_seconds;
    selected_ += stats.middle_tokens_selected;
    decode_steps_ += stats.decode_steps;
    fetched_bytes_ += stats.bytes_topk_fetched;
    TimeSelection(engine);
    TimeTraining(engine, request.prompt.size());
    TimeLlm(request);
  }
  return pqcache::Status::OK();
}

void Replay::TimeSelection(const PQCacheEngine& engine) {
  const pqcache::PQCacheEngineOptions& options = engine.options();
  const pqcache::ModelConfig& model = options.model;
  const size_t d = static_cast<size_t>(model.head_dim);
  const size_t seq_len = engine.sequence_length();
  const size_t budget = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.token_ratio *
                                          static_cast<double>(seq_len))));
  std::vector<float> query(d), table, scores, key(d), value(d), out(d);
  std::vector<float> attn, search_table, search_scores;
  std::vector<int32_t> selection, topk;
  std::vector<bool> hits;
  for (int layer = 0; layer < model.num_layers; ++layer) {
    for (int kv = 0; kv < model.num_kv_heads; ++kv) {
      const PQSpanSet& set = engine.pq_index(layer, kv);
      const KVStore& store = engine.cache().store(layer, kv);
      if (!set.trained() || set.size() == 0) continue;
      const size_t reserved = store.initial_count() + store.local_count();
      const size_t selectable = budget > reserved ? budget - reserved : 0;
      const size_t k = std::min(selectable, set.size());
      if (k == 0) continue;
      const std::vector<const pqcache::PQIndex*> spans = SpanIndexes(set);
      const size_t table_size =
          static_cast<size_t>(options.pq_partitions) << options.pq_bits;
      table.resize(table_size);
      pqcache::BlockCache cache(options.cache);
      pqcache::Rng rng(0x9E11 + query_seed_++, 0);
      // Two untimed rounds warm the scratch buffers and the block cache.
      for (int rep = -2; rep < kRepetitions; ++rep) {
        const bool timed = rep >= 0;
        for (float& q : query) q = rng.Gaussian();

        double t0 = NowSeconds();
        for (const pqcache::PQIndex* index : spans) {
          index->codebook().BuildInnerProductTable(query, table);
        }
        if (timed) Add("pq.lut_us", (NowSeconds() - t0) * 1e6);

        // ApproxInnerProductsWithTable builds each span's table itself, so
        // pq.adc_us includes pq.lut_us.
        scores.resize(set.size());
        size_t offset = 0;
        t0 = NowSeconds();
        for (const pqcache::PQIndex* index : spans) {
          index->ApproxInnerProductsWithTable(
              query, table, {scores.data() + offset, index->size()});
          offset += index->size();
        }
        if (timed) Add("pq.adc_us", (NowSeconds() - t0) * 1e6);

        t0 = NowSeconds();
        pqcache::TopKIndicesInto(scores, k, topk);
        if (timed) Add("tensor.topk_us", (NowSeconds() - t0) * 1e6);

        t0 = NowSeconds();
        set.TopKInto(query, k, search_table, search_scores, selection);
        if (timed) Add("pq.search_us", (NowSeconds() - t0) * 1e6);
        const int32_t base = static_cast<int32_t>(store.middle_begin());
        for (int32_t& t : selection) t += base;

        t0 = NowSeconds();
        cache.Probe(selection, &hits);
        cache.AdmitTopBlocks(selection,
                             std::max<size_t>(1, cache.capacity_blocks()));
        if (timed) Add("cache.probe_us", (NowSeconds() - t0) * 1e6);

        // Attention over the selection plus the pinned anchors.
        for (size_t t = 0; t < store.initial_count(); ++t) {
          selection.push_back(static_cast<int32_t>(t));
        }
        for (size_t t = store.middle_end(); t < seq_len; ++t) {
          selection.push_back(static_cast<int32_t>(t));
        }
        std::sort(selection.begin(), selection.end());
        selection.erase(std::unique(selection.begin(), selection.end()),
                        selection.end());
        attn.resize(selection.size());
        t0 = NowSeconds();
        for (size_t i = 0; i < selection.size(); ++i) {
          store.GetKey(static_cast<size_t>(selection[i]), key);
          attn[i] = pqcache::Dot(query, key);
        }
        pqcache::ScaledSoftmaxInplace(
            attn, 1.0f / std::sqrt(static_cast<float>(d)));
        std::fill(out.begin(), out.end(), 0.0f);
        for (size_t i = 0; i < selection.size(); ++i) {
          store.GetValue(static_cast<size_t>(selection[i]), value);
          pqcache::Axpy(attn[i], value, out);
        }
        if (timed) Add("kv.gather_attend_us", (NowSeconds() - t0) * 1e6);
      }

      // PQ encode of middle keys with this store's first codebook.
      std::vector<float> keys(kEncodeVectors * d);
      const size_t middle = store.middle_count();
      for (size_t i = 0; i < kEncodeVectors; ++i) {
        store.GetKey(store.middle_begin() + i % middle,
                     {keys.data() + i * d, d});
      }
      std::vector<uint16_t> codes(kEncodeVectors *
                                  static_cast<size_t>(options.pq_partitions));
      const double t0 = NowSeconds();
      spans.front()->codebook().EncodeBatch(keys, kEncodeVectors, codes);
      Add("pq.encode_us_per_ktok", (NowSeconds() - t0) * 1e6 * 1000.0 /
                                       static_cast<double>(kEncodeVectors));
    }
  }
}

void Replay::TimeTraining(const PQCacheEngine& engine, size_t prompt_tokens) {
  const pqcache::PQCacheEngineOptions& options = engine.options();
  pqcache::PQConfig config;
  config.num_partitions = options.pq_partitions;
  config.bits = options.pq_bits;
  config.dim = static_cast<size_t>(options.model.head_dim);
  const size_t d = config.dim;
  const size_t span = options.pq_span_tokens;
  // One (layer, kv-head) of the first and of the last layer.
  const int layers[] = {0, options.model.num_layers - 1};
  for (const int layer : layers) {
    const KVStore& store = engine.cache().store(layer, 0);
    const size_t mb = store.middle_begin();
    // The prefill-time middle region: prompt minus the local window.
    const size_t me = prompt_tokens > options.local_window
                          ? prompt_tokens - options.local_window
                          : mb;
    if (me <= mb) continue;
    double seconds = 0;
    for (size_t begin = mb; begin < me; begin += span) {
      const size_t end = std::min(me, begin + span);
      const size_t n = end - begin;
      std::vector<float> keys(n * d);
      for (size_t i = 0; i < n; ++i) {
        store.GetKey(begin + i, {keys.data() + i * d, d});
      }
      pqcache::KMeansOptions kmeans;
      kmeans.max_iterations = options.kmeans_iterations;
      kmeans.seed = begin;
      const double t0 = NowSeconds();
      auto book = pqcache::PQCodebook::Train(keys, n, config, kmeans, nullptr);
      seconds += NowSeconds() - t0;
      if (!book.ok()) return;
    }
    Add("kmeans.train_ms_per_head", seconds * 1e3);
  }
}

void Replay::TimeLlm(const Request& request) {
  const pqcache::PQCacheEngineOptions options = BenchEngineOptions();
  if (model_ == nullptr) {
    auto model = pqcache::TransformerModel::Create(options.model);
    if (!model.ok()) return;
    model_ = std::move(model).value();
  }
  pqcache::KVCacheConfig kv;
  kv.num_layers = options.model.num_layers;
  kv.num_kv_heads = options.model.num_kv_heads;
  kv.store.head_dim = static_cast<size_t>(options.model.head_dim);
  kv.store.initial_tokens = options.initial_tokens;
  kv.store.local_window = options.local_window;
  pqcache::LayeredKVCache cache(kv);
  double t0 = NowSeconds();
  auto logits = model_->Prefill(request.prompt, &cache);
  if (!logits.ok()) return;
  Add("llm.prefill_ms", (NowSeconds() - t0) * 1e3);
  int32_t token = pqcache::TransformerModel::GreedyToken(logits.value());
  TimedAttention attention;
  for (int step = 0; step < kLlmDecodeSteps; ++step) {
    attention.seconds = 0;
    t0 = NowSeconds();
    auto next = model_->DecodeStep(token, request.prompt.size() + step,
                                   &cache, &attention);
    const double total = NowSeconds() - t0;
    if (!next.ok()) return;
    Add("llm.decode_dense_ms", (total - attention.seconds) * 1e3);
    token = pqcache::TransformerModel::GreedyToken(next.value());
  }
}

std::map<std::string, double> Replay::LayerMetrics() const {
  std::map<std::string, double> m;
  auto median = [&](const char* name) {
    auto it = samples_.find(name);
    return it == samples_.end() ? std::nan("") : Median(it->second);
  };
  const pqcache::ModelConfig model = BenchEngineOptions().model;
  m["engine.prefill_ms_p50"] = median("engine.prefill_ms");
  m["engine.decode_step_ms"] = median("engine.decode_step_ms");
  m["engine.pq_train_share"] = prefill_wall_seconds_ > 0
                                   ? pq_train_seconds_ / prefill_wall_seconds_
                                   : std::nan("");
  const double steps = static_cast<double>(std::max<uint64_t>(1, decode_steps_));
  m["engine.selected_per_step"] = static_cast<double>(selected_) / steps;
  m["engine.fetch_kb_per_step"] = fetched_bytes_ / steps / 1024.0;
  m["prefix.lookup_us"] = median("prefix.lookup_us");
  m["prefix.publish_us"] = median("prefix.publish_us");
  m["llm.prefill_ms_p50"] = median("llm.prefill_ms");
  m["llm.decode_dense_ms"] = median("llm.decode_dense_ms");
  m["pq.lut_us"] = median("pq.lut_us");
  m["pq.adc_us"] = median("pq.adc_us");
  m["pq.search_us"] = median("pq.search_us");
  m["pq.encode_us_per_ktok"] = median("pq.encode_us_per_ktok");
  m["kmeans.train_ms_per_head"] = median("kmeans.train_ms_per_head");
  m["tensor.topk_us"] = median("tensor.topk_us");
  // One top-k per query head per layer in every decode step.
  m["tensor.topk_share"] = m["tensor.topk_us"] * 1e-3 * model.num_layers *
                           model.num_heads / m["engine.decode_step_ms"];
  m["cache.probe_us"] = median("cache.probe_us");
  m["kv.gather_attend_us"] = median("kv.gather_attend_us");
  return m;
}

}  // namespace perfbench
