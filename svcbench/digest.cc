#include "digest.h"

#include <string_view>

namespace svcbench {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over one answer line plus its '\n' terminator.
uint64_t Mix(uint64_t h, std::string_view line) {
  for (unsigned char c : line) {
    h ^= c;
    h *= kFnvPrime;
  }
  h ^= '\n';
  return h * kFnvPrime;
}

}  // namespace

AnswerRef ReferenceOf(const rdfmr::SolutionSet& answers,
                      uint64_t max_answers) {
  AnswerRef ref{answers.size(), kFnvOffset};
  uint64_t emitted = 0;
  for (const rdfmr::Solution& solution : answers) {
    if (emitted++ >= max_answers) break;
    ref.digest = Mix(ref.digest, solution.Serialize());
  }
  return ref;
}

AnswerRef ResponseRef(const rdfmr::JsonValue& response) {
  AnswerRef ref{response.GetUint("num_answers"), kFnvOffset};
  const rdfmr::JsonValue& answers = response.Get("answers");
  if (!answers.is_array()) return ref;
  for (const rdfmr::JsonValue& line : answers.AsArray()) {
    ref.digest = Mix(ref.digest, line.AsString());
  }
  return ref;
}

std::string CheckResponse(const rdfmr::JsonValue& response,
                          const AnswerRef& expected) {
  if (!response.GetBool("ok")) {
    return "not ok: " + response.GetString("error");
  }
  const AnswerRef got = ResponseRef(response);
  if (got.count != expected.count) {
    return "num_answers " + std::to_string(got.count) + ", expected " +
           std::to_string(expected.count);
  }
  if (got.digest != expected.digest) return "answer digest mismatch";
  return "";
}

}  // namespace svcbench
