// Workload definitions of the service benchmark: which datasets a workload
// serves, its distinct request lines, and the fixed, seeded sequence of
// operations the closed-loop client replays.
//
// Every workload mixes the same three operation types, in proportions
// chosen to stress a different layer:
//   * query  — a request that executes (a result-cache miss);
//   * hit    — a result-cache hit on an entry cached during set-up;
//   * reload — a refresh of the `delta` dataset: N-Triples parse, .rdx
//              build and the `load` verb, which bumps the dataset's epoch
//              and purges its cache entries.
// The sequence is a pure function of (workload, seed, seconds): the same
// arguments always give the same operations in the same order, so every
// operation type has the same sample count and mix in every run.

#ifndef SVCBENCH_SCHEDULE_H_
#define SVCBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace svcbench {

enum class OpKind { kQuery, kHit, kReload };

const char* OpKindName(OpKind kind);

/// \brief One distinct request line of a workload.
struct RequestSpec {
  std::string label;     ///< e.g. "B1/hive"; also the wire "name"
  std::string dataset;   ///< "main" or "delta"
  std::string sparql;    ///< query text sent on the wire
  std::string engine;    ///< lazy | hive | auto
  bool cached = false;   ///< false sends "no_result_cache"
};

/// \brief One replayed operation.
struct Op {
  OpKind kind = OpKind::kQuery;
  /// Index into WorkloadSpec::requests (query and hit operations).
  uint32_t request = 0;
  /// Content variant of `delta` loaded by a reload, or in place when a
  /// delta query runs (selects the reference answers).
  uint32_t variant = 0;
  /// Consecutive operations with the same group are timed, and replayed
  /// when the host disturbed them, as one unit.
  uint32_t group = 0;

  bool operator==(const Op& o) const {
    return kind == o.kind && request == o.request && variant == o.variant &&
           group == o.group;
  }
};

/// \brief A dataset the workload generates: family, scale and seed.
struct DatasetSpec {
  std::string family;
  uint64_t scale = 0;
  uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  DatasetSpec main;
  /// The two alternating contents of `delta`; reload k loads
  /// variant (k + 1) % 2, set-up registers variant 0.
  DatasetSpec delta[2];
  std::vector<RequestSpec> requests;
  /// Requests executed once during set-up so that hits find them cached.
  std::vector<uint32_t> warm;
  std::vector<Op> ops;
};

/// \brief Cap on the answers each response carries (the digest covers
/// exactly these; `num_answers` still reports the full count).
inline constexpr uint64_t kMaxAnswers = 20;

/// \brief Hits are summarized per window of this many consecutive hits
/// (see WindowedPercentile); every run of hits in a sequence is a whole
/// number of windows.
inline constexpr uint32_t kHitWindow = 100;

/// \brief Names of the workloads BuildWorkload knows, in order.
const std::vector<std::string>& WorkloadNames();

/// \brief Builds `name`'s datasets, requests and operation sequence for
/// `seed`. `seconds` sets how many fixed blocks the sequence holds.
rdfmr::Result<WorkloadSpec> BuildWorkload(const std::string& name,
                                          uint64_t seed, uint32_t seconds);

/// \brief The NDJSON `query` line for `request`.
std::string RequestLine(const RequestSpec& request);

}  // namespace svcbench

#endif  // SVCBENCH_SCHEDULE_H_
