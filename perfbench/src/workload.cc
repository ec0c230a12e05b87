#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/llm/model_config.h"

namespace perfbench {

namespace {

// Rates and SLO limits, calibrated once on the reference host (4 CPUs,
// x86-64 with AVX2; see README.md). Every prefill stalls a whole scheduler
// round, so queueing sets in well below full CPU use and amplifies the
// host's own run-to-run speed drift. Each rate is the one of the two tried
// whose ten-seed runs kept the gated metrics inside their bounds (chat: 12
// and 6 req/s; rag_prefix: 0.5 and 0.35 bursts/s). long_doc's was lowered
// from 1.12 to 1.0 req/s, where no seed tipped the server into the
// congested regime some did at 1.12. The SLO limits sit
// in the tails of five calibration runs per workload, requests pooled:
// chat's near the p90 of per-request TTFT and mean TPOT, the others' near
// the p95, where 40-120 requests per window made attainment at the p90
// swing past its bound between seeds. Attainment then sits near 0.85-0.9,
// so a slower tail lowers it.
constexpr WorkloadSpec kSpecs[] = {
    {Workload::kChat, "chat", 6.0, 50.0, 1.0, 8, 3},
    {Workload::kRagPrefix, "rag_prefix", 0.5, 550.0, 16.0, 6, 3},
    {Workload::kLongDoc, "long_doc", 1.0, 1000.0, 12.0, 3, 2},
};

// Random-number streams: one per input property, so changing how one
// property is drawn never shifts another.
enum Stream : uint64_t {
  kArrivals = 1,
  kLengths = 2,
  kTokens = 3,
  kTemplates = 4,
  kTenants = 5,
  kWarmup = 6,
};

int VocabSize() { return pqcache::ModelConfig::Tiny().vocab_size; }

// Stratified sampling: n quantiles in (0, 1), one from each stratum
// [i/n, (i+1)/n), in a seeded random order. Drawing a window's lengths and
// gaps through them keeps the seed's randomness (which request gets which
// value, token ids, jitter) while every seed offers the same distribution,
// so run-to-run spread measures the server rather than the draw.
std::vector<double> StratifiedQuantiles(pqcache::Rng& rng, size_t n) {
  std::vector<double> q(n);
  for (size_t i = 0; i < n; ++i) {
    q[i] = (static_cast<double>(i) + rng.Uniform()) / static_cast<double>(n);
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(q[i - 1], q[static_cast<size_t>(rng.UniformInt(i))]);
  }
  return q;
}

// Evenly spread quantiles in window order: n quantiles in [0, 1), the i-th
// at frac(offset + i * step) for a seeded offset. Every stretch of
// consecutive requests then gets a near-even share of the range, so how
// often costly draws (long prompts, cold templates, big bursts) land next
// to each other does not change with the seed; the offset still does. Each
// property uses its own irrational step so that properties of one request
// are not tied to each other.
std::vector<double> EvenQuantiles(pqcache::Rng& rng, size_t n, double step) {
  std::vector<double> q(n);
  const double offset = rng.Uniform();
  for (size_t i = 0; i < n; ++i) {
    const double v = offset + static_cast<double>(i) * step;
    q[i] = v - std::floor(v);
  }
  return q;
}

// Steps for EvenQuantiles: fractional parts of the golden ratio and of
// sqrt(2).
constexpr double kGoldenStep = 0.6180339887498949;
constexpr double kSqrt2Step = 0.4142135623730951;

size_t UniformLength(double q, size_t lo, size_t hi) {
  const size_t span = hi - lo + 1;
  return lo + std::min(span - 1, static_cast<size_t>(q * static_cast<double>(span)));
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Quantile q of a log-normal with the given median and sigma, truncated to
// [lo, hi] (inverse CDF by bisection on the standard normal).
size_t LogNormalLength(double q, double median, double sigma, size_t lo,
                       size_t hi) {
  const double a = NormalCdf(std::log(static_cast<double>(lo) / median) / sigma);
  const double b = NormalCdf(std::log(static_cast<double>(hi) / median) / sigma);
  const double target = a + q * (b - a);
  double x_lo = -10, x_hi = 10;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (x_lo + x_hi);
    (NormalCdf(mid) < target ? x_lo : x_hi) = mid;
  }
  const double v = std::round(median * std::exp(sigma * 0.5 * (x_lo + x_hi)));
  return static_cast<size_t>(std::clamp(v, static_cast<double>(lo),
                                        static_cast<double>(hi)));
}

// Sorted offsets of n Poisson arrivals in [0, seconds) conditioned on the
// count: n + 1 exponential gaps (stratified, in random order) scaled to the
// window.
std::vector<double> PoissonArrivals(pqcache::Rng& rng, size_t n,
                                    double seconds) {
  const std::vector<double> q = StratifiedQuantiles(rng, n + 1);
  std::vector<double> times;
  double total = 0;
  for (const double u : q) {
    total += -std::log1p(-u);
    times.push_back(total);
  }
  times.pop_back();
  for (double& t : times) t *= seconds / total;
  return times;
}

// Sorted offsets of n arrivals, one placed uniformly at random in the
// middle half of each of n equal slices of the window: the same mean rate
// as Poisson, but consecutive arrivals are at least half a slice apart.
std::vector<double> SlicedArrivals(pqcache::Rng& rng, size_t n,
                                   double seconds) {
  std::vector<double> times(n);
  for (size_t i = 0; i < n; ++i) {
    times[i] = (static_cast<double>(i) + 0.25 + 0.5 * rng.Uniform()) *
               seconds / static_cast<double>(n);
  }
  return times;
}

std::vector<int32_t> RandomTokens(pqcache::Rng& rng, size_t n) {
  std::vector<int32_t> tokens(n);
  const uint64_t vocab = static_cast<uint64_t>(VocabSize());
  for (int32_t& t : tokens) t = static_cast<int32_t>(rng.UniformInt(vocab));
  return tokens;
}

constexpr double kChatPromptSigma = 0.6;
constexpr double kChatOutputSigma = 0.7;
constexpr size_t kRagOutputMin = 16;
constexpr size_t kRagOutputMax = 48;
constexpr double kRagBurstSpreadSeconds = 0.02;
// Warm-up requests decode only this many tokens: enough to page in every
// decode path without stretching set-up time.
constexpr size_t kWarmupMaxNewTokens = 16;

Request ChatRequest(double q_prompt, double q_output, double q_tenant,
                    pqcache::Rng& tokens) {
  const WorkloadShape shape = DeclaredShape(Workload::kChat);
  Request r;
  r.prompt = RandomTokens(
      tokens, LogNormalLength(q_prompt, shape.prompt.median, kChatPromptSigma,
                              shape.prompt.min, shape.prompt.max));
  r.max_new_tokens =
      LogNormalLength(q_output, shape.output.median, kChatOutputSigma,
                      shape.output.min, shape.output.max);
  // Two tenants, half the requests each: interactive (weight 4) and batch
  // (weight 1).
  if (q_tenant < 0.5) {
    r.tenant = "interactive";
    r.weight = 4;
  } else {
    r.tenant = "batch";
    r.weight = 1;
  }
  return r;
}

Request LongDocRequest(double q_prompt, double q_output,
                       pqcache::Rng& tokens) {
  const WorkloadShape shape = DeclaredShape(Workload::kLongDoc);
  Request r;
  r.prompt = RandomTokens(
      tokens, UniformLength(q_prompt, shape.prompt.min, shape.prompt.max));
  r.max_new_tokens = UniformLength(q_output, shape.output.min, shape.output.max);
  r.tenant = "doc";
  return r;
}

struct TemplateSet {
  std::vector<std::vector<int32_t>> tokens;
  std::vector<double> cdf;  // Zipf popularity, cumulative.

  explicit TemplateSet(uint64_t seed) {
    pqcache::Rng rng(seed, kTemplates);
    const std::vector<double> q = StratifiedQuantiles(rng, kRagTemplates);
    double total = 0;
    for (size_t i = 0; i < kRagTemplates; ++i) {
      tokens.push_back(RandomTokens(
          rng, UniformLength(q[i], kRagTemplateMin, kRagTemplateMax)));
      total += 1.0 / std::pow(static_cast<double>(i + 1), kRagZipfExponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }

  // The template at popularity quantile q.
  int Draw(double q) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), q);
    return static_cast<int>(
        std::min<size_t>(it - cdf.begin(), kRagTemplates - 1));
  }
};

Request RagRequest(const TemplateSet& templates, int template_id,
                   double q_suffix, double q_output, pqcache::Rng& tokens) {
  Request r;
  const std::vector<int32_t>& base = templates.tokens[template_id];
  r.prompt = base;
  const std::vector<int32_t> suffix = RandomTokens(
      tokens, UniformLength(q_suffix, kRagSuffixMin, kRagSuffixMax));
  r.prompt.insert(r.prompt.end(), suffix.begin(), suffix.end());
  r.max_new_tokens = UniformLength(q_output, kRagOutputMin, kRagOutputMax);
  r.tenant = "rag";
  r.template_id = template_id;
  r.template_tokens = base.size();
  return r;
}

}  // namespace

const WorkloadSpec& Spec(Workload workload) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.workload == workload) return spec;
  }
  return kSpecs[0];
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return spec.workload;
  }
  return std::nullopt;
}

WorkloadShape DeclaredShape(Workload workload) {
  switch (workload) {
    case Workload::kChat:
      return {{64, 768, 256}, {16, 256, 48}};
    case Workload::kRagPrefix:
      return {{kRagTemplateMin + kRagSuffixMin,
               kRagTemplateMax + kRagSuffixMax,
               (kRagTemplateMin + kRagTemplateMax) / 2.0 +
                   (kRagSuffixMin + kRagSuffixMax) / 2.0},
              {kRagOutputMin, kRagOutputMax,
               (kRagOutputMin + kRagOutputMax) / 2.0}};
    case Workload::kLongDoc:
      return {{1024, 3072, 2048}, {128, 256, 192}};
  }
  return {};
}

std::vector<Request> MakeSchedule(Workload workload, uint64_t seed,
                                  double seconds) {
  const WorkloadSpec& spec = Spec(workload);
  pqcache::Rng arrivals(seed, kArrivals);
  pqcache::Rng lengths(seed, kLengths);
  pqcache::Rng tokens(seed, kTokens);
  pqcache::Rng tenants(seed, kTenants);
  const size_t events = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rate * seconds)));
  // chat keeps Poisson arrivals; rag_prefix bursts and long_doc requests
  // are sliced (see README.md: with ~20-40 prefill-heavy arrivals per
  // window, Poisson clusters swung their TTFT tails by 2x between runs).
  const std::vector<double> times =
      workload == Workload::kChat ? PoissonArrivals(arrivals, events, seconds)
                                  : SlicedArrivals(arrivals, events, seconds);
  std::vector<Request> out;
  if (workload == Workload::kRagPrefix) {
    const TemplateSet templates(seed);
    const std::vector<double> q_template =
        EvenQuantiles(arrivals, events, kGoldenStep);
    const std::vector<double> q_size = EvenQuantiles(arrivals, events, kSqrt2Step);
    std::vector<size_t> sizes;
    size_t total = 0;
    for (const double q : q_size) {
      sizes.push_back(UniformLength(q, kRagBurstMin, kRagBurstMax));
      total += sizes.back();
    }
    const std::vector<double> q_suffix = StratifiedQuantiles(lengths, total);
    const std::vector<double> q_output = StratifiedQuantiles(lengths, total);
    size_t k = 0;
    for (size_t b = 0; b < events; ++b) {
      const int template_id = templates.Draw(q_template[b]);
      std::vector<double> offsets(sizes[b]);
      for (double& o : offsets) o = arrivals.Uniform() * kRagBurstSpreadSeconds;
      std::sort(offsets.begin(), offsets.end());
      for (const double offset : offsets) {
        Request r = RagRequest(templates, template_id, q_suffix[k],
                               q_output[k], tokens);
        ++k;
        r.due_seconds = std::min(times[b] + offset, seconds);
        out.push_back(std::move(r));
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Request& a, const Request& b) {
                       return a.due_seconds < b.due_seconds;
                     });
    return out;
  }
  // long_doc's prefill cost follows its prompt length, so its prompts are
  // spread evenly in window order (see EvenQuantiles).
  const std::vector<double> q_prompt =
      workload == Workload::kLongDoc ? EvenQuantiles(lengths, events, kGoldenStep)
                                     : StratifiedQuantiles(lengths, events);
  const std::vector<double> q_output = StratifiedQuantiles(lengths, events);
  const std::vector<double> q_tenant = StratifiedQuantiles(tenants, events);
  for (size_t i = 0; i < events; ++i) {
    Request r = workload == Workload::kChat
                    ? ChatRequest(q_prompt[i], q_output[i], q_tenant[i], tokens)
                    : LongDocRequest(q_prompt[i], q_output[i], tokens);
    r.due_seconds = times[i];
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> MakeWarmup(Workload workload, uint64_t seed) {
  // Warm-up lengths sit at fixed quantiles, the same for every seed, so
  // set-up time does not vary with the draw; token ids come from the seed.
  const WorkloadSpec& spec = Spec(workload);
  pqcache::Rng tokens(seed, kWarmup);
  const size_t n = spec.warmup_requests;
  const TemplateSet templates(seed);
  std::vector<Request> out;
  for (size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    switch (workload) {
      case Workload::kChat:
        out.push_back(ChatRequest(q, q, q, tokens));
        break;
      case Workload::kRagPrefix:
        // The most popular templates, as a serving registry would hold.
        out.push_back(RagRequest(templates, static_cast<int>(i), q, q, tokens));
        break;
      case Workload::kLongDoc:
        out.push_back(LongDocRequest(q, q, tokens));
        break;
    }
  }
  for (Request& r : out) {
    r.max_new_tokens = std::min(r.max_new_tokens, kWarmupMaxNewTokens);
  }
  return out;
}

double TemplateTokenShare(const std::vector<Request>& requests) {
  double shared = 0;
  double total = 0;
  for (const Request& r : requests) {
    shared += static_cast<double>(r.template_tokens);
    total += static_cast<double>(r.prompt.size());
  }
  return total == 0 ? 0 : shared / total;
}

}  // namespace perfbench
