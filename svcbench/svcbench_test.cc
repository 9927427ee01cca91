// Unit tests of the benchmark's own logic: the percentile reporting rule,
// the seeded request sequence, the answer digest check and the reference
// evaluator. Run with `python3 svcbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <set>

#include "digest.h"
#include "query/aggregate.h"
#include "query/matcher.h"
#include "query/sparql_parser.h"
#include "reference.h"
#include "schedule.h"
#include "service/dataset_io.h"
#include "stats.h"

namespace svcbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Ramp(19), 0.5).has_value());
  ASSERT_TRUE(Percentile(Ramp(20), 0.5).has_value());
  EXPECT_EQ(*Percentile(Ramp(20), 0.5), 10.0);
  EXPECT_FALSE(Percentile(Ramp(99), 0.9).has_value());
  ASSERT_TRUE(Percentile(Ramp(100), 0.9).has_value());
  EXPECT_EQ(*Percentile(Ramp(100), 0.9), 90.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, WindowedNeedsTheTailInEveryWindow) {
  EXPECT_EQ(*WindowedPercentile({Ramp(100), Ramp(100)}, 0.9), 90.0);
  EXPECT_FALSE(WindowedPercentile({Ramp(100), Ramp(99)}, 0.9).has_value());
  EXPECT_FALSE(WindowedPercentile({}, 0.5).has_value());
}

TEST(PercentileTest, WindowedIgnoresAMinorityOfSlowWindows) {
  std::vector<double> slow = Ramp(100);
  for (double& x : slow) x *= 10;
  EXPECT_EQ(*WindowedPercentile({Ramp(100), slow, Ramp(100)}, 0.9), 90.0);
}

TEST(MedianTest, EvenAndOdd) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

size_t Count(const WorkloadSpec& w, OpKind kind) {
  size_t n = 0;
  for (const Op& op : w.ops) n += op.kind == kind;
  return n;
}

TEST(ScheduleTest, SeedFixesTheSequence) {
  for (const std::string& name : WorkloadNames()) {
    auto a = BuildWorkload(name, 7, 15);
    auto b = BuildWorkload(name, 7, 15);
    auto c = BuildWorkload(name, 8, 15);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << name;
    EXPECT_EQ(a->ops, b->ops) << name;
    ASSERT_EQ(a->requests.size(), b->requests.size());
    for (size_t i = 0; i < a->requests.size(); ++i) {
      EXPECT_EQ(RequestLine(a->requests[i]), RequestLine(b->requests[i]));
    }
    EXPECT_EQ(a->main.seed, b->main.seed);
    EXPECT_NE(a->ops, c->ops) << name;
    EXPECT_NE(a->main.seed, c->main.seed) << name;
    // Same mix under every seed.
    for (OpKind kind : {OpKind::kQuery, OpKind::kHit, OpKind::kReload}) {
      EXPECT_EQ(Count(*a, kind), Count(*c, kind)) << name;
    }
  }
}

TEST(ScheduleTest, EveryPercentileHasItsTail) {
  for (const std::string& name : WorkloadNames()) {
    for (uint32_t seconds : {1u, 15u}) {
      auto w = BuildWorkload(name, 1, seconds);
      ASSERT_TRUE(w.ok()) << name;
      EXPECT_GE(Count(*w, OpKind::kQuery), 2 * kMinTail) << name;
      EXPECT_GE(Count(*w, OpKind::kReload), 2 * kMinTail) << name;
      EXPECT_GE(Count(*w, OpKind::kHit), 10 * kMinTail) << name;
    }
  }
}

TEST(ScheduleTest, HitsComeInWholeWindows) {
  for (const std::string& name : WorkloadNames()) {
    auto w = BuildWorkload(name, 1, 15);
    ASSERT_TRUE(w.ok()) << name;
    size_t run = 0;
    for (const Op& op : w->ops) {
      if (op.kind == OpKind::kHit) {
        ++run;
      } else {
        EXPECT_EQ(run % kHitWindow, 0u) << name;
        run = 0;
      }
    }
    EXPECT_EQ(run % kHitWindow, 0u) << name;
  }
}

TEST(ScheduleTest, UnknownWorkloadFails) {
  EXPECT_FALSE(BuildWorkload("nope", 1, 15).ok());
}

rdfmr::SolutionSet SampleAnswers(size_t n) {
  rdfmr::SolutionSet set;
  for (size_t i = 0; i < n; ++i) {
    rdfmr::Solution s;
    s.Bind("p", "product" + std::to_string(i));
    s.Bind("up", "label");
    set.insert(s);
  }
  return set;
}

/// The response the protocol sends for `answers` under the cap.
rdfmr::JsonValue ResponseOf(const rdfmr::SolutionSet& answers) {
  rdfmr::JsonValue response = rdfmr::JsonValue::MakeObject();
  response.Set("ok", true);
  response.Set("num_answers", static_cast<uint64_t>(answers.size()));
  rdfmr::JsonValue lines = rdfmr::JsonValue::MakeArray();
  for (const rdfmr::Solution& s : answers) {
    if (lines.AsArray().size() == kMaxAnswers) break;
    lines.Append(s.Serialize());
  }
  response.Set("answers", std::move(lines));
  return response;
}

TEST(DigestTest, AcceptsTheReference) {
  const rdfmr::SolutionSet answers = SampleAnswers(50);
  EXPECT_EQ(CheckResponse(ResponseOf(answers),
                          ReferenceOf(answers, kMaxAnswers)),
            "");
}

TEST(DigestTest, CatchesAPerturbedAnswer) {
  const rdfmr::SolutionSet answers = SampleAnswers(50);
  const AnswerRef ref = ReferenceOf(answers, kMaxAnswers);
  rdfmr::JsonValue response = ResponseOf(answers);
  rdfmr::JsonValue::Array lines = response.Get("answers").AsArray();
  lines[3] = rdfmr::JsonValue(lines[3].AsString() + "x");
  response.Set("answers", rdfmr::JsonValue(std::move(lines)));
  EXPECT_EQ(CheckResponse(response, ref), "answer digest mismatch");
}

TEST(DigestTest, CatchesAWrongCountAndAnError) {
  const rdfmr::SolutionSet answers = SampleAnswers(50);
  const AnswerRef ref = ReferenceOf(answers, kMaxAnswers);
  rdfmr::JsonValue response = ResponseOf(answers);
  response.Set("num_answers", static_cast<uint64_t>(49));
  EXPECT_NE(CheckResponse(response, ref), "");
  response.Set("ok", false);
  EXPECT_NE(CheckResponse(response, ref), "");
}

TEST(DigestTest, CatchesReorderedAnswers) {
  const rdfmr::SolutionSet answers = SampleAnswers(5);
  rdfmr::JsonValue response = ResponseOf(answers);
  rdfmr::JsonValue::Array lines = response.Get("answers").AsArray();
  std::swap(lines[0], lines[1]);
  response.Set("answers", rdfmr::JsonValue(std::move(lines)));
  EXPECT_NE(CheckResponse(response, ReferenceOf(answers, kMaxAnswers)), "");
}

TEST(ReferenceTest, MatchesTheInMemoryEvaluator) {
  for (const std::string& name : WorkloadNames()) {
    auto w = BuildWorkload(name, 3, 15);
    ASSERT_TRUE(w.ok());
    auto triples = rdfmr::service::GenerateFamilyDataset(w->main.family, 60,
                                                         w->main.seed);
    ASSERT_TRUE(triples.ok());
    std::set<std::string> seen;
    size_t nonempty = 0;
    for (const RequestSpec& spec : w->requests) {
      if (!seen.insert(spec.sparql).second) continue;
      auto parsed = rdfmr::ParseSparqlQuery(spec.label, spec.sparql);
      ASSERT_TRUE(parsed.ok()) << spec.label;
      const rdfmr::SolutionSet expected =
          parsed->aggregate.has_value()
              ? rdfmr::EvaluateAggregateInMemory(
                    parsed->query, *parsed->aggregate, *triples)
              : rdfmr::EvaluateQueryInMemory(parsed->query, *triples);
      EXPECT_EQ(EvaluateReference(parsed->query, parsed->aggregate, *triples),
                expected)
          << spec.label;
      nonempty += !expected.empty();
    }
    EXPECT_GE(nonempty * 2, seen.size()) << name;
  }
}

}  // namespace
}  // namespace svcbench
