// Delta-driven IncDeduce (the batched semi-naive pass): Γ must be
// bit-identical to the full chase fixpoint and invariant under every
// execution path — the per-task loop (threads 1), pooled rounds above the
// size threshold (threads 4), record-then-merge on every round (threads 4,
// threshold 1), dependency capacity 0/partial/default, and (at the DMatch
// level) run_parallel × threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "chase/deduce.h"
#include "chase/match.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/ecommerce.h"
#include "parallel/dmatch.h"
#include "rules/parser.h"

namespace dcer {
namespace {

struct ProtocolResult {
  std::vector<std::pair<Gid, Gid>> pairs;
  std::vector<uint64_t> ml_keys;
  // Deltas of the engine's running counters across the IncDeduce call; the
  // determinism contract says these match under any threads setting.
  uint64_t seeded_joins = 0;
  uint64_t inc_rounds = 0;
  uint64_t inc_frontier_items = 0;
  uint64_t inc_dedup_hits = 0;
  uint64_t matches = 0;
};

// One IncDeduce execution path. threads 1 has no pool, so every round runs
// the per-task loop; threads 4 records rounds of at least
// min_parallel_inc_tasks re-joins on the pool (0 keeps the engine default);
// a threshold of 1 sends every round through record-then-merge.
struct ExecConfig {
  int threads;
  size_t min_parallel_inc_tasks;
};
constexpr ExecConfig kExecConfigs[] = {{1, 0}, {4, 0}, {4, 1}};

std::string Describe(const ExecConfig& c) {
  return "threads=" + std::to_string(c.threads) +
         " min_parallel_inc_tasks=" + std::to_string(c.min_parallel_inc_tasks);
}

// The cap protocol at the engine level: full Deduce over the up rule alone
// (finds nothing — every valuation needs child matches), then the given leaf
// matches arrive as external facts and IncDeduce cascades. With capacity 0
// nothing was recorded in H, so every internal valuation must be recovered
// through seeded re-joins; with the default capacity H is complete and the
// no-drop fast path answers from the dependency store.
ProtocolResult RunProtocol(const Dataset& dataset, const RuleSet& rules,
                           const MlRegistry& registry,
                           const std::vector<Fact>& leaf_facts,
                           size_t capacity, const ExecConfig& exec) {
  DatasetView view = DatasetView::Full(dataset);
  MatchContext ctx(dataset);
  EngineOptions eo;
  eo.dependency_capacity = capacity;
  eo.threads = exec.threads;
  ChaseEngine::Options o =
      ChaseEngine::FromEngineOptions(eo, &ThreadPool::Global());
  if (exec.min_parallel_inc_tasks > 0) {
    o.min_parallel_inc_tasks = exec.min_parallel_inc_tasks;
  }
  ChaseEngine engine(&view, &rules, &registry, &ctx, o);
  Delta d0;
  engine.Deduce(&d0);
  Delta seeds;
  engine.ApplyExternalFacts(leaf_facts, &seeds);
  const ChaseStats before = engine.stats();
  Delta out;
  engine.IncDeduce(seeds, &out);
  const ChaseStats& after = engine.stats();
  ProtocolResult r;
  r.pairs = ctx.MatchedPairs();
  r.ml_keys = ctx.ValidatedMlKeys();
  r.seeded_joins = after.seeded_joins - before.seeded_joins;
  r.inc_rounds = after.inc_rounds - before.inc_rounds;
  r.inc_frontier_items = after.inc_frontier_items - before.inc_frontier_items;
  r.inc_dedup_hits = after.inc_dedup_hits - before.inc_dedup_hits;
  r.matches = after.matches - before.matches;
  return r;
}

ProtocolResult RunProtocol(const TournamentWorkload& w,
                           const std::vector<Fact>& leaf_facts,
                           size_t capacity, const ExecConfig& exec) {
  return RunProtocol(w.dataset, w.up_rules, w.registry, leaf_facts, capacity,
                     exec);
}

void ExpectSameResult(const ProtocolResult& a, const ProtocolResult& b,
                      const char* what) {
  EXPECT_EQ(a.pairs, b.pairs) << what;
  EXPECT_EQ(a.ml_keys, b.ml_keys) << what;
}

void ExpectSameStats(const ProtocolResult& a, const ProtocolResult& b,
                     const char* what) {
  EXPECT_EQ(a.seeded_joins, b.seeded_joins) << what;
  EXPECT_EQ(a.inc_rounds, b.inc_rounds) << what;
  EXPECT_EQ(a.inc_frontier_items, b.inc_frontier_items) << what;
  EXPECT_EQ(a.inc_dedup_hits, b.inc_dedup_hits) << what;
  EXPECT_EQ(a.matches, b.matches) << what;
}

// The chase counters a DMatch run reports are part of the determinism
// contract too: run_parallel × threads changes who enumerates, never what.
// Γ alone is too forgiving here — a valuation lost in one pooled round is
// re-derived from a sibling seed or by another worker, but it still leaves
// the counters short.
void ExpectSameChaseCounters(const ChaseStats& a, const ChaseStats& b,
                             const std::string& what) {
  EXPECT_EQ(a.valuations, b.valuations) << what;
  EXPECT_EQ(a.join_candidates, b.join_candidates) << what;
  EXPECT_EQ(a.matches, b.matches) << what;
  EXPECT_EQ(a.deps_dropped, b.deps_dropped) << what;
  EXPECT_EQ(a.seeded_joins, b.seeded_joins) << what;
  EXPECT_EQ(a.inc_rounds, b.inc_rounds) << what;
  EXPECT_EQ(a.inc_frontier_items, b.inc_frontier_items) << what;
  EXPECT_EQ(a.inc_dedup_hits, b.inc_dedup_hits) << what;
}

class IncDeduceTournamentTest : public ::testing::TestWithParam<bool> {};

TEST_P(IncDeduceTournamentTest, RecoveryMatchesFullChaseFixpoint) {
  const bool with_ml = GetParam();
  const int kLevels = 6;  // 64 leaf pairs, 63 internal pairs
  auto w = MakeTournament(kLevels, with_ml);
  ASSERT_NE(w, nullptr);

  // Reference: the ordinary full chase over leaf + up rules.
  std::vector<std::pair<Gid, Gid>> expected_pairs;
  std::vector<uint64_t> expected_ml;
  {
    DatasetView view = DatasetView::Full(w->dataset);
    MatchContext ctx(w->dataset);
    engine::Match(view, w->rules, w->registry, {}, &ctx);
    expected_pairs = ctx.MatchedPairs();
    expected_ml = ctx.ValidatedMlKeys();
    ASSERT_EQ(expected_pairs.size(), (1u << (kLevels + 1)) - 1);
  }

  const std::vector<Fact> leaves = TournamentLeafFacts(*w);
  // Capacity 0 forces full seeded recovery; 8 mixes recorded and dropped
  // dependencies; the default never drops (fast path).
  for (size_t cap : {size_t{0}, size_t{8}, size_t{1} << 20}) {
    ProtocolResult ref;
    bool have_ref = false;
    for (const ExecConfig& exec : kExecConfigs) {
      ProtocolResult r = RunProtocol(*w, leaves, cap, exec);
      std::string what = "cap=" + std::to_string(cap) + " " + Describe(exec);
      EXPECT_EQ(r.pairs, expected_pairs) << what;
      EXPECT_EQ(r.ml_keys, expected_ml) << what;
      // Every counter is deterministic across the execution paths for a
      // fixed capacity.
      if (!have_ref) {
        ref = r;
        have_ref = true;
      } else {
        ExpectSameStats(ref, r, what.c_str());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PlainAndMl, IncDeduceTournamentTest,
                         ::testing::Bool());

TEST(IncDeduceTest, RandomLeafSubsetsAgreeAcrossConfigs) {
  // Randomized workloads: random subsets of the leaf matches yield partial
  // brackets. Reference = default capacity (H complete, answered by the
  // dependency store); every recovery configuration must reproduce it.
  const int kLevels = 5;  // 32 leaf pairs
  auto w = MakeTournament(kLevels, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  Rng rng(29);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Fact> leaves;
    for (const auto& [a, b] : w->leaf_pairs) {
      if (rng.Uniform(10) < 6) leaves.push_back(Fact::IdMatch(a, b));
    }
    ProtocolResult ref =
        RunProtocol(*w, leaves, size_t{1} << 20, kExecConfigs[0]);
    for (size_t cap : {size_t{0}, size_t{4}}) {
      for (const ExecConfig& exec : kExecConfigs) {
        ProtocolResult r = RunProtocol(*w, leaves, cap, exec);
        std::string what = "trial=" + std::to_string(trial) +
                           " cap=" + std::to_string(cap) + " " +
                           Describe(exec);
        ExpectSameResult(ref, r, what.c_str());
      }
    }
  }
}

TEST(IncDeduceTest, NoDropFastPathSkipsSeededJoins) {
  // With the default H capacity nothing is ever dropped, so applying the
  // seeds already reached the fixpoint and IncDeduce must return without a
  // single seeded re-join or semi-naive round.
  auto w = MakeTournament(5, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  ProtocolResult r = RunProtocol(*w, TournamentLeafFacts(*w), size_t{1} << 20,
                                 kExecConfigs[0]);
  EXPECT_EQ(r.seeded_joins, 0u);
  EXPECT_EQ(r.inc_rounds, 0u);
  EXPECT_EQ(r.inc_frontier_items, 0u);
  // Γ is still the complete bracket.
  EXPECT_EQ(r.pairs.size(), (1u << 6) - 1);
}

TEST(IncDeduceTest, MergeRecheckSeesFactsDerivedEarlierInTheRound) {
  // One round both derives a fact and consumes it. The seed a1=b1 lets
  // "chain" derive a2=b2, and "both" needs a1=b1 and a2=b2 to derive
  // a3=b3. Round 1 re-joins both rules from a1=b1; chain's valuation is
  // applied first (rule order), so when "both"'s valuation is applied its
  // id predicate on (a2, b2) already holds. The per-task loop sees that at
  // enumeration time; record-then-merge recorded the predicate as unsat
  // against the frozen context and must drop it through the merge-time
  // re-check. A stale entry would park a3=b3 in H (dropped at capacity 0)
  // until a third round re-derives it.
  Dataset dataset;
  const size_t rel = dataset.AddRelation(
      Schema("Node", {{"tag", ValueType::kString},
                      {"key", ValueType::kString},
                      {"nxt", ValueType::kString},
                      {"l", ValueType::kString},
                      {"r", ValueType::kString}}));
  auto str = [](const char* s) {
    return s == nullptr ? Value::Null() : Value(std::string(s));
  };
  auto add = [&](const char* tag, const char* key, const char* nxt,
                 const char* l, const char* r) {
    return dataset.AppendTuple(
        rel, {str(tag), str(key), str(nxt), str(l), str(r)});
  };
  const Gid a1 = add("n1", "a1", "a2", nullptr, nullptr);
  const Gid b1 = add("n1", "b1", "b2", nullptr, nullptr);
  add("n2", "a2", nullptr, nullptr, nullptr);
  add("n2", "b2", nullptr, nullptr, nullptr);
  add("n3", "a3", nullptr, "a1", "a2");
  add("n3", "b3", nullptr, "b1", "b2");
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "chain: Node(t) ^ Node(s) ^ Node(u) ^ Node(v) ^ "
                  "t.tag = s.tag ^ t.nxt = u.key ^ s.nxt = v.key ^ "
                  "t.id = s.id -> u.id = v.id\n"
                  "both: Node(x) ^ Node(y) ^ Node(t) ^ Node(s) ^ Node(u) ^ "
                  "Node(v) ^ x.tag = y.tag ^ x.l = t.key ^ y.l = s.key ^ "
                  "x.r = u.key ^ y.r = v.key ^ t.id = s.id ^ u.id = v.id "
                  "-> x.id = y.id\n",
                  dataset, registry, &rules)
                  .ok());

  const std::vector<Fact> seeds = {Fact::IdMatch(a1, b1)};
  ProtocolResult ref;
  for (const ExecConfig& exec : kExecConfigs) {
    ProtocolResult r = RunProtocol(dataset, rules, registry, seeds,
                                   /*capacity=*/0, exec);
    const std::string what = Describe(exec);
    EXPECT_EQ(r.pairs.size(), 3u) << what;
    // Round 1 derives a2=b2 and a3=b3; round 2 finds nothing new.
    EXPECT_EQ(r.inc_rounds, 2u) << what;
    if (&exec == &kExecConfigs[0]) {
      ref = r;
    } else {
      ExpectSameStats(ref, r, what.c_str());
    }
  }
}

TEST(IncDeduceTest, DMatchTransportsAndAblationAgree) {
  // The BSP path with capacity 0: every incremental superstep runs the
  // seeded recovery. The sequential ablation and the pooled executor, with
  // one or two threads per worker, must all reproduce the sequential Match
  // fixpoint.
  auto w = MakeTournament(5, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  std::vector<std::pair<Gid, Gid>> expected;
  {
    DatasetView view = DatasetView::Full(w->dataset);
    MatchContext ctx(w->dataset);
    engine::Match(view, w->rules, w->registry, {}, &ctx);
    expected = ctx.MatchedPairs();
  }
  ChaseStats ref;
  for (bool run_parallel : {false, true}) {
    for (int threads : {1, 2}) {
      DMatchOptions o;
      o.num_workers = 4;
      o.dependency_capacity = 0;
      o.run_parallel = run_parallel;
      o.threads = threads;
      MatchContext ctx(w->dataset);
      DMatchReport r =
          engine::DMatch(w->dataset, w->rules, w->registry, o, &ctx);
      const std::string what = "run_parallel=" +
                               std::to_string(run_parallel) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(ctx.MatchedPairs(), expected) << what;
      EXPECT_GT(r.chase.seeded_joins, 0u);
      if (!run_parallel && threads == 1) {
        ref = r.chase;
      } else {
        ExpectSameChaseCounters(ref, r.chase, what);
      }
    }
  }
}

TEST(IncDeduceTest, EcommerceDMatchCap0AgreesWithMatch) {
  // The ML-heavy generated workload: classifier predicates and equivalence
  // expansion, with capacity 0 forcing recovery inside every incremental
  // superstep.
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  std::vector<std::pair<Gid, Gid>> expected;
  std::vector<uint64_t> expected_ml;
  {
    DatasetView view = DatasetView::Full(gd->dataset);
    MatchContext ctx(gd->dataset);
    engine::Match(view, gd->rules, gd->registry, {}, &ctx);
    expected = ctx.MatchedPairs();
    expected_ml = ctx.ValidatedMlKeys();
    ASSERT_FALSE(expected.empty());
  }
  ChaseStats ref;
  for (bool run_parallel : {false, true}) {
    for (int threads : {1, 2}) {
      gd->registry.ClearCache();
      DMatchOptions o;
      o.num_workers = 4;
      o.dependency_capacity = 0;
      o.run_parallel = run_parallel;
      o.threads = threads;
      MatchContext ctx(gd->dataset);
      DMatchReport r =
          engine::DMatch(gd->dataset, gd->rules, gd->registry, o, &ctx);
      const std::string what = "run_parallel=" +
                               std::to_string(run_parallel) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(ctx.MatchedPairs(), expected) << what;
      EXPECT_EQ(ctx.ValidatedMlKeys(), expected_ml) << what;
      if (!run_parallel && threads == 1) {
        ref = r.chase;
      } else {
        ExpectSameChaseCounters(ref, r.chase, what);
      }
    }
  }
}

}  // namespace
}  // namespace dcer
