// Answer checking. A reference is the in-memory evaluator's full answer
// count plus a digest of the first kMaxAnswers answers in canonical
// (SolutionSet) order — exactly the answers a capped response carries. A
// response passes when its `num_answers` and the digest of its `answers`
// array both equal the reference.

#ifndef SVCBENCH_DIGEST_H_
#define SVCBENCH_DIGEST_H_

#include <cstdint>
#include <string>

#include "common/json.h"
#include "query/solution.h"

namespace svcbench {

struct AnswerRef {
  uint64_t count = 0;
  uint64_t digest = 0;

  bool operator==(const AnswerRef& o) const {
    return count == o.count && digest == o.digest;
  }
};

/// \brief Reference of a full answer set under a cap of `max_answers`.
AnswerRef ReferenceOf(const rdfmr::SolutionSet& answers,
                      uint64_t max_answers);

/// \brief The same summary computed from a `query` response object
/// (`num_answers` plus the serialized solutions in `answers`).
AnswerRef ResponseRef(const rdfmr::JsonValue& response);

/// \brief Empty when `response` is OK and matches `expected`; otherwise
/// a one-line reason.
std::string CheckResponse(const rdfmr::JsonValue& response,
                          const AnswerRef& expected);

}  // namespace svcbench

#endif  // SVCBENCH_DIGEST_H_
