// Reference answers for the benchmark's correctness check.
//
// The answers are those of rdfmr's in-memory evaluator
// (EvaluateQueryInMemory / EvaluateAggregateInMemory): the same per-star
// matching (MatchStar) folded star by star in the same order. Only the
// fold differs. The evaluator joins with a nested loop, which needs
// minutes on the benchmark's 40k-150k-triple datasets; this one buckets
// each star's solutions by the values of the join variables first and
// calls Solution::Merge only within a bucket. Pairs in different buckets
// disagree on a variable both bind, so Merge would reject them anyway: the
// result is the same set, and a unit test checks it against the
// evaluator.

#ifndef SVCBENCH_REFERENCE_H_
#define SVCBENCH_REFERENCE_H_

#include <optional>
#include <vector>

#include "query/aggregate.h"
#include "query/pattern.h"
#include "query/solution.h"
#include "rdf/triple.h"

namespace svcbench {

rdfmr::SolutionSet EvaluateReference(
    const rdfmr::GraphPatternQuery& query,
    const std::optional<rdfmr::AggregateSpec>& aggregate,
    const std::vector<rdfmr::Triple>& triples);

}  // namespace svcbench

#endif  // SVCBENCH_REFERENCE_H_
