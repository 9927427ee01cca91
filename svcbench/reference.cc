#include "reference.h"

#include <map>
#include <string>
#include <unordered_map>

#include "query/matcher.h"

namespace svcbench {

namespace {

using rdfmr::Solution;

/// Variables bound by every solution in `solutions`.
std::vector<std::string> CommonVars(const std::vector<Solution>& solutions) {
  std::vector<std::string> vars;
  if (solutions.empty()) return vars;
  for (const auto& [var, value] : solutions.front().bindings()) {
    bool everywhere = true;
    for (const Solution& s : solutions) {
      if (!s.Has(var)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) vars.push_back(var);
  }
  return vars;
}

std::string KeyOf(const Solution& s, const std::vector<std::string>& vars) {
  std::string key;
  for (const std::string& var : vars) {
    key += *s.Get(var);
    key += '\x1f';
  }
  return key;
}

std::vector<Solution> Join(const std::vector<Solution>& left,
                           const std::vector<Solution>& right) {
  // Join on the variables every solution on both sides binds.
  std::vector<std::string> vars;
  const std::vector<std::string> right_vars = CommonVars(right);
  for (const std::string& var : CommonVars(left)) {
    for (const std::string& r : right_vars) {
      if (r == var) vars.push_back(var);
    }
  }
  std::unordered_map<std::string, std::vector<const Solution*>> buckets;
  for (const Solution& b : right) buckets[KeyOf(b, vars)].push_back(&b);
  std::vector<Solution> out;
  for (const Solution& a : left) {
    auto it = buckets.find(KeyOf(a, vars));
    if (it == buckets.end()) continue;
    for (const Solution* b : it->second) {
      rdfmr::Result<Solution> merged = a.Merge(*b);
      if (merged.ok()) out.push_back(merged.MoveValueUnsafe());
    }
  }
  return out;
}

}  // namespace

rdfmr::SolutionSet EvaluateReference(
    const rdfmr::GraphPatternQuery& query,
    const std::optional<rdfmr::AggregateSpec>& aggregate,
    const std::vector<rdfmr::Triple>& triples) {
  std::map<std::string, std::vector<rdfmr::Triple>> by_subject;
  for (const rdfmr::Triple& t : triples) by_subject[t.subject].push_back(t);
  std::vector<Solution> acc;
  for (size_t s = 0; s < query.stars().size(); ++s) {
    std::vector<Solution> star;
    for (const auto& [subject, subject_triples] : by_subject) {
      for (Solution& m : rdfmr::MatchStar(query.stars()[s], subject_triples)) {
        star.push_back(std::move(m));
      }
    }
    acc = s == 0 ? std::move(star) : Join(acc, star);
  }
  rdfmr::SolutionSet answers(acc.begin(), acc.end());
  if (!aggregate.has_value()) return answers;
  return rdfmr::AggregateSolutions(answers, *aggregate);
}

}  // namespace svcbench
