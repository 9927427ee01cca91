#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/json.h"
#include "datagen/testbed.h"

namespace svcbench {

namespace {

using rdfmr::Result;
using rdfmr::Status;

/// Aggregated unbound-property queries: the testbed's B1, B3, B4 and B5
/// counting distinct products per unbound property, and B0 (all bound)
/// counting them per product type as the control. Each returns 1-11 rows.
struct AggregateQuery {
  const char* id;
  const char* sparql;
};
constexpr AggregateQuery kAggregates[] = {
    {"B0", R"(SELECT ?t (COUNT(DISTINCT ?p) AS ?n) WHERE {
        ?p <label> ?l . ?p <type> ?t . ?p <prodFeature> ?f .
        ?o <product> ?p . ?o <vendor> ?v . ?o <price> ?pr . } GROUP BY ?t)"},
    {"B1", R"(SELECT ?up (COUNT(DISTINCT ?p) AS ?n) WHERE {
        ?p <label> ?l . ?p <type> ?t . ?p ?up ?x .
        ?x <featureLabel> ?fl . ?x <featureType> ?ft . } GROUP BY ?up)"},
    {"B3", R"(SELECT ?up2 (COUNT(DISTINCT ?p) AS ?n) WHERE {
        ?p <label> ?l . ?p ?up1 ?x1 .
        FILTER(CONTAINS(STR(?x1), "producer"))
        ?p ?up2 ?x2 .
        ?o <product> ?p . ?o <vendor> ?v . ?o <price> ?pr . } GROUP BY ?up2)"},
    {"B4", R"(SELECT ?up (COUNT(DISTINCT ?p) AS ?n) WHERE {
        ?p <label> ?l . ?p <type> ?t . ?p ?up ?x .
        ?o <product> ?p . ?o <vendor> ?v . ?o <price> ?pr . } GROUP BY ?up)"},
    {"B5", R"(SELECT ?up (COUNT(DISTINCT ?p) AS ?n) WHERE {
        ?p <label> ?l . ?p ?up ?x . ?x <featureLabel> ?fl .
        ?o <product> ?p . ?o <vendor> ?v . ?o <price> ?pr . } GROUP BY ?up)"},
};

/// Result-cache hits issued after each executed query of a cold workload.
/// The first few of them run slower: the first waits while the worker
/// frees the previous answer set (up to ~0.4 s after A3), the next ones
/// on cold CPU caches. They all fall in the first of three hit windows,
/// so the median over windows describes serving beside cold analytics
/// rather than the edge of that ramp (with two windows it sat on it); the
/// per-layer metric service.after_miss_hit_ms reports the first hit, and
/// qps the stall.
constexpr uint32_t kHitsPerColdQuery = 3 * kHitWindow;
/// Each workload holds at least this many reloads and executed queries,
/// so their medians have 10 samples beyond them.
constexpr uint32_t kMinReloads = 20;
/// serve_refresh: hits on the hot set between two refreshes.
constexpr uint32_t kHitsPerRefresh = 6 * kHitWindow;

Result<std::string> CatalogText(const std::string& id) {
  RDFMR_ASSIGN_OR_RETURN(rdfmr::TestbedEntry entry,
                         rdfmr::GetTestbedEntry(id));
  return entry.sparql;
}

/// Blocks in a run: `seconds` over the block's nominal duration on the
/// reference host, never below `min_blocks`.
uint32_t Blocks(uint32_t seconds, double nominal_block_seconds,
                uint32_t min_blocks) {
  const double n = std::round(seconds / nominal_block_seconds);
  return std::max(min_blocks, static_cast<uint32_t>(n));
}

/// Deterministic uniform draw in [0, n): the modulo bias is irrelevant
/// here and, unlike std::uniform_int_distribution, the result is the same
/// on every standard library.
uint32_t Draw(std::mt19937_64& rng, size_t n) {
  return static_cast<uint32_t>(rng() % n);
}

void Shuffle(std::vector<uint32_t>* v, std::mt19937_64& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[Draw(rng, i)]);
  }
}

/// Appends the ops of one cold block: every executed request once in
/// seeded order, each followed by kHitsPerColdQuery hits; a reload
/// follows the first `reloads` of them. Each query opens a group.
void AppendColdBlock(const std::vector<uint32_t>& executed,
                     const std::vector<uint32_t>& warm, uint32_t reloads,
                     std::mt19937_64& rng, uint32_t* reload_count,
                     std::vector<Op>* ops) {
  std::vector<uint32_t> order = executed;
  Shuffle(&order, rng);
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t group = ops->empty() ? 0 : ops->back().group + 1;
    ops->push_back({OpKind::kQuery, order[i], 0, group});
    for (uint32_t h = 0; h < kHitsPerColdQuery; ++h) {
      ops->push_back({OpKind::kHit, warm[Draw(rng, warm.size())], 0, group});
    }
    if (i < reloads) {
      ++*reload_count;
      ops->push_back({OpKind::kReload, 0, *reload_count % 2, group});
    }
  }
}

uint32_t ReloadsPerBlock(uint32_t blocks, size_t queries_per_block) {
  const uint32_t want = (kMinReloads + blocks - 1) / blocks;
  return std::min<uint32_t>(want, static_cast<uint32_t>(queries_per_block));
}

Status BuildColdAgg(uint64_t seed, uint32_t seconds, WorkloadSpec* w) {
  w->main = {"bsbm", 1000, seed};
  for (const char* engine : {"lazy", "hive", "auto"}) {
    for (const AggregateQuery& q : kAggregates) {
      w->requests.push_back({std::string(q.id) + "/" + engine, "main",
                             q.sparql, engine, false});
    }
  }
  std::vector<uint32_t> executed(w->requests.size());
  for (uint32_t i = 0; i < executed.size(); ++i) executed[i] = i;
  for (const AggregateQuery& q : kAggregates) {
    w->warm.push_back(static_cast<uint32_t>(w->requests.size()));
    w->requests.push_back({std::string(q.id) + "/lazy/cached", "main",
                           q.sparql, "lazy", true});
  }
  std::mt19937_64 rng(seed);
  const uint32_t blocks = Blocks(seconds, 5.0, 2);
  const uint32_t reloads = ReloadsPerBlock(blocks, executed.size());
  uint32_t reload_count = 0;
  for (uint32_t b = 0; b < blocks; ++b) {
    AppendColdBlock(executed, w->warm, reloads, rng, &reload_count,
                    &w->ops);
  }
  return Status::OK();
}

Status BuildColdAnswers(uint64_t seed, uint32_t seconds, WorkloadSpec* w) {
  w->main = {"bio2rdf", 2000, seed};
  std::vector<uint32_t> executed;
  // A1-A4 return thousands to ~300k answers each; A5 (~100) is the
  // control whose decode is negligible, and with five queries the median
  // falls inside one query's samples rather than between two.
  for (const char* id : {"A1", "A2", "A3", "A4", "A5"}) {
    RDFMR_ASSIGN_OR_RETURN(std::string text, CatalogText(id));
    executed.push_back(static_cast<uint32_t>(w->requests.size()));
    w->requests.push_back({std::string(id) + "/lazy", "main", text, "lazy",
                           false});
  }
  // The hits replay A1, whose cached answers (about 13 MB) fit the cache.
  RDFMR_ASSIGN_OR_RETURN(std::string a1, CatalogText("A1"));
  w->warm.push_back(static_cast<uint32_t>(w->requests.size()));
  w->requests.push_back({"A1/lazy/cached", "main", a1, "lazy", true});
  std::mt19937_64 rng(seed);
  const uint32_t blocks = Blocks(seconds, 3.2, 5);
  const uint32_t reloads = ReloadsPerBlock(blocks, executed.size());
  uint32_t reload_count = 0;
  for (uint32_t b = 0; b < blocks; ++b) {
    AppendColdBlock(executed, w->warm, reloads, rng, &reload_count,
                    &w->ops);
  }
  return Status::OK();
}

Status BuildServeRefresh(uint64_t seed, uint32_t seconds, WorkloadSpec* w) {
  w->main = {"bsbm", 5000, seed};
  // The hot set: five testbed queries whose cached answers together
  // charge well under the 16 MB result cache.
  for (const char* id : {"Q1b", "Q2b", "Q3b", "Q2a", "Q3a"}) {
    RDFMR_ASSIGN_OR_RETURN(std::string text, CatalogText(id));
    w->warm.push_back(static_cast<uint32_t>(w->requests.size()));
    w->requests.push_back({std::string(id) + "/lazy", "main", text, "lazy",
                           true});
  }
  std::vector<uint32_t> delta_queries;
  for (const char* id : {"Q1b", "Q3b"}) {
    RDFMR_ASSIGN_OR_RETURN(std::string text, CatalogText(id));
    delta_queries.push_back(static_cast<uint32_t>(w->requests.size()));
    w->requests.push_back({std::string(id) + "/lazy/delta", "delta", text,
                           "lazy", true});
  }
  std::mt19937_64 rng(seed);
  const uint32_t blocks = Blocks(seconds, 0.3, kMinReloads);
  for (uint32_t b = 0; b < blocks; ++b) {
    const uint32_t variant = (b + 1) % 2;
    w->ops.push_back({OpKind::kReload, 0, variant, b});
    std::vector<uint32_t> order = delta_queries;
    Shuffle(&order, rng);
    for (uint32_t r : order) {
      w->ops.push_back({OpKind::kQuery, r, variant, b});
    }
    for (uint32_t h = 0; h < kHitsPerRefresh; ++h) {
      w->ops.push_back(
          {OpKind::kHit, w->warm[Draw(rng, w->warm.size())], variant, b});
    }
  }
  return Status::OK();
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kHit:
      return "hit";
    case OpKind::kReload:
      return "reload";
  }
  return "?";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"cold_agg", "cold_answers",
                                                  "serve_refresh"};
  return kNames;
}

Result<WorkloadSpec> BuildWorkload(const std::string& name, uint64_t seed,
                                   uint32_t seconds) {
  WorkloadSpec w;
  w.name = name;
  // The refreshed dataset: a seeded BSBM 2000 whose content alternates
  // between two seeds, so a stale cache entry would return wrong answers.
  w.delta[0] = {"bsbm", 2000, seed * 1000 + 11};
  w.delta[1] = {"bsbm", 2000, seed * 1000 + 12};
  Status st;
  if (name == "cold_agg") {
    st = BuildColdAgg(seed, seconds, &w);
  } else if (name == "cold_answers") {
    st = BuildColdAnswers(seed, seconds, &w);
  } else if (name == "serve_refresh") {
    st = BuildServeRefresh(seed, seconds, &w);
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  if (!st.ok()) return st;
  return w;
}

std::string RequestLine(const RequestSpec& request) {
  rdfmr::JsonValue o = rdfmr::JsonValue::MakeObject();
  o.Set("verb", "query");
  o.Set("dataset", request.dataset);
  o.Set("name", request.label);
  o.Set("sparql", request.sparql);
  o.Set("engine", request.engine);
  o.Set("max_answers", kMaxAnswers);
  if (!request.cached) o.Set("no_result_cache", true);
  return o.Dump();
}

}  // namespace svcbench
