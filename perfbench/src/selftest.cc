// Self-tests of the benchmark's own code: schedule determinism, declared
// length distributions, template-token share per workload, the percentile
// helper's ten-beyond rule and the per-delivery token gaps. The tiny
// end-to-end run against a loopback server lives in `run.py selftest`,
// which runs this binary first.
//
//   perfbench_selftest        (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool SameSchedule(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_seconds != b[i].due_seconds || a[i].prompt != b[i].prompt ||
        a[i].max_new_tokens != b[i].max_new_tokens ||
        a[i].tenant != b[i].tenant || a[i].weight != b[i].weight ||
        a[i].template_id != b[i].template_id) {
      return false;
    }
  }
  return true;
}

constexpr Workload kAll[] = {Workload::kChat, Workload::kRagPrefix,
                             Workload::kLongDoc};

void TestDeterminism() {
  for (const Workload w : kAll) {
    const std::string name = Spec(w).name;
    Check(SameSchedule(MakeSchedule(w, 7, 10), MakeSchedule(w, 7, 10)),
          name + ": same seed gives the same schedule");
    Check(!SameSchedule(MakeSchedule(w, 7, 10), MakeSchedule(w, 8, 10)),
          name + ": another seed changes the schedule");
    Check(SameSchedule(MakeWarmup(w, 7), MakeWarmup(w, 7)),
          name + ": same seed gives the same warm-up");
  }
}

void CheckLengths(const std::string& what, const std::vector<double>& values,
                  const LengthRange& range) {
  bool in_range = !values.empty();
  for (const double v : values) {
    in_range = in_range && v >= static_cast<double>(range.min) &&
               v <= static_cast<double>(range.max);
  }
  Check(in_range, what + " within [" + std::to_string(range.min) + ", " +
                      std::to_string(range.max) + "]");
  const double median = Median(values);
  Check(std::fabs(median - range.median) <= 0.1 * range.median,
        what + " median " + std::to_string(median) + " within 10% of " +
            std::to_string(range.median));
}

void TestLengthDistributions() {
  for (const Workload w : kAll) {
    // Long windows give enough requests to pin the medians down.
    const std::vector<Request> requests = MakeSchedule(w, 11, 400);
    const WorkloadShape shape = DeclaredShape(w);
    std::vector<double> prompts, outputs;
    for (const Request& r : requests) {
      prompts.push_back(static_cast<double>(r.prompt.size()));
      outputs.push_back(static_cast<double>(r.max_new_tokens));
    }
    const std::string name = Spec(w).name;
    CheckLengths(name + " prompt lengths", prompts, shape.prompt);
    CheckLengths(name + " output lengths", outputs, shape.output);
    const double seconds = 400;
    double last = -1;
    bool ordered = true;
    for (const Request& r : requests) {
      ordered = ordered && r.due_seconds >= last && r.due_seconds <= seconds;
      last = r.due_seconds;
    }
    Check(ordered, name + " arrivals are sorted and inside the window");
  }
}

void TestTemplateShare() {
  const double chat = TemplateTokenShare(MakeSchedule(Workload::kChat, 3, 30));
  const double rag =
      TemplateTokenShare(MakeSchedule(Workload::kRagPrefix, 3, 30));
  const double doc = TemplateTokenShare(MakeSchedule(Workload::kLongDoc, 3, 30));
  std::printf("      template token share: chat %.3f  rag_prefix %.3f  "
              "long_doc %.3f\n",
              chat, rag, doc);
  Check(chat == 0, "chat prompts share no template tokens");
  Check(doc == 0, "long_doc prompts share no template tokens");
  Check(rag > 0.75, "rag_prefix prompts are mostly template tokens");
  // Bursts: every rag_prefix request shares its template with at least
  // kRagBurstMin - 1 neighbours that arrive within the burst spread.
  const std::vector<Request> rag_requests =
      MakeSchedule(Workload::kRagPrefix, 3, 30);
  bool bursty = true;
  for (size_t i = 0; i < rag_requests.size(); ++i) {
    size_t same = 0;
    for (size_t j = 0; j < rag_requests.size(); ++j) {
      if (rag_requests[j].template_id == rag_requests[i].template_id &&
          std::fabs(rag_requests[j].due_seconds - rag_requests[i].due_seconds) <
              0.05) {
        ++same;
      }
    }
    bursty = bursty && same >= kRagBurstMin;
  }
  Check(bursty, "rag_prefix requests arrive in same-template bursts");
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  Check(!Percentile(v, 90).has_value(),
        "p90 of 99 samples is refused (only 9 beyond)");
  v.push_back(100);
  const auto p90 = Percentile(v, 90);
  Check(p90.has_value() && *p90 == 90, "p90 of 1..100 is 90 (10 beyond)");
  const std::vector<double> first49(v.begin(), v.begin() + 49);
  const std::vector<double> first50(v.begin(), v.begin() + 50);
  Check(!Percentile(first49, 80).has_value(),
        "p80 of 49 samples is refused (only 9 beyond)");
  Check(Percentile(first50, 80).value_or(-1) == 40,
        "p80 of 1..50 is 40 (10 beyond)");
  std::vector<double> w;
  for (int i = 1; i <= 999; ++i) w.push_back(1000 - i);  // Unsorted input.
  Check(!Percentile(w, 99).has_value(), "p99 of 999 samples is refused");
  w.push_back(1000);
  const auto p99 = Percentile(w, 99);
  Check(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990");
  Check(Percentile(v, 50, 0).value_or(-1) == 50, "nearest-rank p50 is 50");
  Check(!Percentile({}, 50, 0).has_value(), "no percentile of no samples");
  Check(Median({1, 2, 3, 4}) == 2.5 && std::isnan(Median({})),
        "median interpolates and is NaN when empty");
}

void TestTokenGaps() {
  // Arrivals in seconds: the first token with a second one beside it,
  // then one token 4 ms later, then three together 6 ms after that.
  std::vector<double> gaps;
  AppendTokenGaps({1.000, 1.000, 1.004, 1.010, 1.010, 1.010}, &gaps);
  const std::vector<double> want = {4, 2, 2, 2};
  bool same = gaps.size() == want.size();
  for (size_t i = 0; same && i < want.size(); ++i) {
    same = std::fabs(gaps[i] - want[i]) < 1e-9;
  }
  Check(same, "a delivery of k tokens after a wait adds k samples of wait/k");
  gaps.clear();
  AppendTokenGaps({2.0}, &gaps);
  AppendTokenGaps({}, &gaps);
  Check(gaps.empty(), "a one-token or empty stream adds no token gap");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestDeterminism();
  perfbench::TestLengthDistributions();
  perfbench::TestTemplateShare();
  perfbench::TestPercentileRule();
  perfbench::TestTokenGaps();
  std::printf("%s: %d failure(s)\n",
              perfbench::g_failures == 0 ? "PASS" : "FAIL",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
