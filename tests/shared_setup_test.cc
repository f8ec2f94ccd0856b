// Tests of the setup a parallel open pays once: the scored-column
// ProfileStore (covers exactly the strings profile-backed ML predicates
// read, across streamed appends; its batch predictions equal the pairwise
// kernels), DMatch with one store shared by every worker (Γ identical to the
// sequential chase), and the gid-map-free DatasetView (RowOf / Hosts /
// Append against a hash-map reference).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/deduce.h"
#include "chase/match.h"
#include "common/rng.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "ml/profile.h"
#include "ml/similarity.h"
#include "parallel/dmatch.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// --- scored-column ProfileStore ---------------------------------------------

// Pool ids the profiled paths can read, derived from the rules directly:
// non-NULL cells of every single-string side of an ML precondition whose
// classifier has a batch kernel.
std::unordered_set<uint32_t> ScoredIds(const Dataset& d, const RuleSet& rules,
                                       const MlRegistry& registry) {
  std::unordered_set<uint32_t> ids;
  auto add_side = [&](int rel, const std::vector<int>& attrs) {
    if (attrs.size() != 1) return;
    const Column& col = d.relation(rel).column(attrs[0]);
    if (col.type() != ValueType::kString) return;
    for (size_t row = 0; row < d.relation(rel).num_rows(); ++row) {
      if (!col.is_null(row)) ids.insert(col.str_id(row));
    }
  };
  for (const Rule& rule : rules.rules()) {
    for (const Predicate& p : rule.preconditions()) {
      if (p.kind != PredicateKind::kMl ||
          registry.classifier(p.ml_id).batch_kernel() ==
              MlBatchKernel::kNone) {
        continue;
      }
      add_side(rule.var_relation(p.lhs.var), p.lhs_ml_attrs);
      add_side(rule.var_relation(p.rhs.var), p.rhs_ml_attrs);
    }
  }
  return ids;
}

void ExpectCoversExactly(const ProfileStore& store, const StringPool& pool,
                         const std::unordered_set<uint32_t>& want) {
  EXPECT_EQ(store.size(), want.size());
  for (uint32_t id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(store.Find(id) != nullptr, want.count(id) > 0) << "id " << id;
  }
  EXPECT_EQ(store.Find(ProfileStore::kNpos), nullptr);
}

// The profile's content, independent of token-id assignment order.
void ExpectSameProfile(const ProfileStore& a, const ProfileStore& b,
                       uint32_t id) {
  const ProfileStore::Profile* pa = a.Find(id);
  const ProfileStore::Profile* pb = b.Find(id);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->byte_len, pb->byte_len);
  EXPECT_EQ(pa->gram_total, pb->gram_total);
  ASSERT_EQ(pa->gram_count, pb->gram_count);
  for (uint32_t i = 0; i < pa->gram_count; ++i) {
    EXPECT_EQ(a.gram_hashes(*pa)[i], b.gram_hashes(*pb)[i]);
    EXPECT_EQ(a.gram_counts(*pa)[i], b.gram_counts(*pb)[i]);
  }
  std::vector<std::string_view> ta, tb;
  for (uint32_t i = 0; i < pa->tok_count; ++i) {
    ta.push_back(a.token_text(a.tokens(*pa)[i]));
  }
  for (uint32_t i = 0; i < pb->tok_count; ++i) {
    tb.push_back(b.token_text(b.tokens(*pb)[i]));
  }
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  EXPECT_EQ(ta, tb);
}

TEST(ScoredProfileStore, CoversExactlyTheScoredIdsAcrossAppends) {
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  const Dataset& full = gd->dataset;

  // Stream the generated tuples into a fresh dataset in gid order, syncing
  // the store after every chunk.
  Dataset grown;
  for (size_t r = 0; r < full.num_relations(); ++r) {
    grown.AddRelation(full.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(
      ParseRuleSet(gd->rules.ToString(full), grown, gd->registry, &rules)
          .ok());
  std::shared_ptr<ProfileStore> store =
      ChaseEngine::ScoredProfiles(grown, rules, gd->registry);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 0u);
  Gid next = 0;
  for (Gid cut : {Gid{1}, Gid{40}, Gid{200}, Gid(full.num_tuples())}) {
    for (; next < cut; ++next) {
      const TupleLoc loc = full.loc(next);
      grown.AppendTuple(loc.relation, full.relation(loc.relation).row(loc.row));
    }
    store->Sync();
    ExpectCoversExactly(*store, grown.pool(),
                        ScoredIds(grown, rules, gd->registry));
  }
  const size_t synced = store->size();
  store->Sync();  // idempotent
  EXPECT_EQ(store->size(), synced);

  // The filter is real: unscored strings exist and stay unprofiled.
  EXPECT_GT(synced, 0u);
  EXPECT_LT(synced, grown.pool().size());

  // Profiles equal the whole-pool store's, string by string.
  ProfileStore whole(&grown.pool());
  whole.Sync();
  for (uint32_t id = 0; id < grown.pool().size(); ++id) {
    if (store->Find(id) != nullptr) ExpectSameProfile(*store, whole, id);
  }
}

TEST(ScoredProfileStore, ProfilesACellThatReusesAnUnscoredString) {
  Dataset d;
  const size_t rel = d.AddRelation(Schema(
      "people", {{"name", ValueType::kString}, {"note", ValueType::kString}}));
  ProfileStore store(&d, {{static_cast<uint32_t>(rel), 0}});
  d.AppendTuple(rel, {Value("alice smith"), Value("bob jones")});
  store.Sync();
  const uint32_t alice = d.pool().Find("alice smith");
  const uint32_t bob = d.pool().Find("bob jones");
  EXPECT_NE(store.Find(alice), nullptr);
  EXPECT_EQ(store.Find(bob), nullptr);  // only in the unscored column

  // A scored cell now reuses the id the unscored column interned first.
  d.AppendTuple(rel, {Value("bob jones"), Value::Null()});
  d.AppendTuple(rel, {Value::Null(), Value("carol")});
  store.Sync();
  EXPECT_EQ(d.pool().Find("bob jones"), bob);
  ASSERT_NE(store.Find(bob), nullptr);
  EXPECT_EQ(store.Find(bob)->byte_len, 9u);
  EXPECT_EQ(store.Find(d.pool().Find("carol")), nullptr);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ScoredProfileStore, BatchPredictionsEqualPairwiseKernels) {
  EcommerceOptions options;
  options.num_customers = 120;
  auto gd = MakeEcommerce(options);
  std::shared_ptr<ProfileStore> store =
      ChaseEngine::ScoredProfiles(gd->dataset, gd->rules, gd->registry);
  ASSERT_NE(store, nullptr);
  const StringPool& pool = gd->dataset.pool();
  std::vector<uint32_t> ids = {ProfileStore::kNpos};
  for (uint32_t id = 0; id < pool.size(); ++id) {
    if (store->Find(id) != nullptr) ids.push_back(id);
  }
  ASSERT_GT(ids.size(), 20u);
  auto text = [&pool](uint32_t id) {
    return id == ProfileStore::kNpos ? std::string_view() : pool.view(id);
  };
  std::vector<uint8_t> preds(ids.size());
  for (double t : {0.3, 0.6, 0.85}) {
    for (size_t probe = 0; probe < ids.size(); probe += 7) {
      const std::string_view a = text(ids[probe]);
      PredictTokenJaccardBatch(*store, ids[probe], ids.data(), ids.size(), t,
                               preds.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(preds[i] != 0, TokenJaccard(a, text(ids[i])) >= t)
            << "[" << a << "] vs [" << text(ids[i]) << "] t=" << t;
      }
      PredictEditSimilarityBatch(*store, ids[probe], ids.data(), ids.size(),
                                 t, preds.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(preds[i] != 0, EditSimilarity(a, text(ids[i])) >= t)
            << "[" << a << "] vs [" << text(ids[i]) << "] t=" << t;
      }
    }
  }
}

// --- DMatch with one shared store -------------------------------------------

void ExpectSharedStoreDMatchEqualsSequential(const GenDataset& gd) {
  MatchContext reference(gd.dataset);
  MatchOptions seq;
  seq.ml_profiles = false;
  engine::Match(DatasetView::Full(gd.dataset), gd.rules, gd.registry, seq,
                &reference);
  ASSERT_GT(reference.num_matched_pairs(), 0u);
  for (int workers : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      for (bool profiles : {false, true}) {
        MatchContext ctx(gd.dataset);
        DMatchOptions options;
        options.num_workers = workers;
        options.threads = threads;
        options.ml_profiles = profiles;
        const DMatchReport report =
            engine::DMatch(gd.dataset, gd.rules, gd.registry, options, &ctx);
        const std::string config = "workers=" + std::to_string(workers) +
                                   " threads=" + std::to_string(threads) +
                                   " profiles=" + std::to_string(profiles);
        EXPECT_EQ(ctx.MatchedPairs(), reference.MatchedPairs()) << config;
        EXPECT_EQ(ctx.ValidatedMlKeys(), reference.ValidatedMlKeys())
            << config;
        EXPECT_GE(report.teardown_seconds, 0.0) << config;
        EXPECT_GE(report.seconds, report.partition_seconds +
                                      report.er_seconds +
                                      report.teardown_seconds)
            << config;
      }
    }
  }
}

TEST(SharedProfileDMatch, EcommerceEqualsSequentialAcrossWorkersAndThreads) {
  EcommerceOptions options;
  options.num_customers = 200;
  auto gd = MakeEcommerce(options);
  ExpectSharedStoreDMatchEqualsSequential(*gd);
}

TEST(SharedProfileDMatch, TpchEqualsSequentialAcrossWorkersAndThreads) {
  TpchOptions options;
  options.scale = 0.5;
  auto gd = MakeTpch(options);
  ExpectSharedStoreDMatchEqualsSequential(*gd);
}

// --- DatasetView without a gid map ------------------------------------------

TEST(DatasetViewProperty, RowOfHostsAppendMatchHashMapReference) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Dataset d;
    const size_t num_rel = 1 + rng.Uniform(3);
    for (size_t r = 0; r < num_rel; ++r) {
      d.AddRelation(Schema("r" + std::to_string(r), {{"v", ValueType::kInt}}));
    }
    auto append_random = [&] {
      const size_t rel = rng.Uniform(num_rel);
      return d.AppendTuple(rel, {Value(static_cast<int64_t>(rng.Uniform(9)))});
    };
    const size_t n = rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) append_random();

    // A random subset; trial 0 is the full view.
    std::unordered_map<Gid, uint32_t> want;
    std::vector<std::vector<uint32_t>> rows(num_rel);
    for (Gid g = 0; g < d.num_tuples(); ++g) {
      if (trial > 0 && rng.Uniform(3) == 0) continue;
      rows[d.loc(g).relation].push_back(d.loc(g).row);
      want[g] = d.loc(g).row;
    }
    DatasetView view = trial == 0 ? DatasetView::Full(d)
                                  : DatasetView(&d, std::move(rows));
    auto check = [&] {
      for (Gid g = 0; g <= d.num_tuples(); ++g) {
        auto it = want.find(g);
        const uint32_t row = it == want.end() ? kInvalidGid : it->second;
        ASSERT_EQ(view.RowOf(g), row) << "trial " << trial << " gid " << g;
        ASSERT_EQ(view.Hosts(g), it != want.end());
      }
      for (size_t r = 0; r < view.num_relations(); ++r) {
        const std::vector<uint32_t>& rs = view.rows(r);
        ASSERT_TRUE(std::adjacent_find(rs.begin(), rs.end(),
                                       std::greater_equal<uint32_t>()) ==
                    rs.end());
      }
      EXPECT_EQ(view.num_tuples(), want.size());
    };
    check();

    // Appends: new tuples, hidden old ones, and duplicates.
    for (int step = 0; step < 60; ++step) {
      Gid g;
      if (rng.Uniform(2) == 0 || d.num_tuples() == 0) {
        g = append_random();
      } else {
        g = static_cast<Gid>(rng.Uniform(d.num_tuples()));
      }
      view.Append(g);
      want[g] = d.loc(g).row;
      if (step % 10 == 0) view.Append(g);  // duplicate
      if (step % 15 == 0) check();
    }
    check();
  }
}

}  // namespace
}  // namespace dcer
