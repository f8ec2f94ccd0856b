#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "chase/deduce.h"
#include "chase/view.h"
#include "common/thread_pool.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "ml/profile.h"
#include "partition/hypart.h"
#include "rules/parser.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/resolver.h"

namespace e2ebench {

using dcer::Dataset;
using dcer::GenDataset;
using dcer::Gid;
using dcer::Row;

namespace {

constexpr int kWorkers = 4;
// Tuples per APPEND request.
constexpr size_t kBatch = 8;

// tpch_batch: TPCH-lite scale 20 (~86.5k tuples), 2.5% of every relation
// streamed. ecommerce_stream: ecommerce-lite with 3,000 customers (~9.4k
// tuples), half of every relation streamed, and its peak RSS read before
// the batch resolves so that the stream's own memory is what it gates.
const WorkloadSpec kWorkloads[] = {
    {"tpch_batch", true, 20.0, 0, 0.025, false},
    {"ecommerce_stream", false, 0, 3000, 0.5, true},
};

// The generated corpus is the same for every --seed: the seed picks the
// held-back sample, the stream order and the reader's targets. Γ, F1 and
// the memory high-water mark then depend on the code, not on which
// corpus a seed happened to draw.
constexpr uint64_t kCorpusSeed = 42;

std::unique_ptr<GenDataset> Generate(const WorkloadSpec& spec) {
  if (spec.tpch) {
    dcer::TpchOptions o;
    o.scale = spec.tpch_scale;
    o.seed = kCorpusSeed;
    return dcer::MakeTpch(o);
  }
  dcer::EcommerceOptions o;
  o.num_customers = spec.customers;
  o.seed = kCorpusSeed;
  return dcer::MakeEcommerce(o);
}

// The rules parsed against `target`, with the generator's registry made cold:
// its prediction cache and every classifier's memo cleared and its counters
// zeroed, so nothing the stream or an earlier open memoized carries over.
dcer::RuleSet ColdRules(GenDataset& gd, const std::string& rules_text,
                        const Dataset& target,
                        std::vector<std::string>* errors) {
  gd.registry.ClearCache();
  gd.registry.ResetStats();
  dcer::RuleSet rules;
  dcer::Status st = dcer::ParseRuleSet(rules_text, target, gd.registry, &rules);
  if (!st.ok()) errors->push_back("rules failed to parse: " + st.ToString());
  return rules;
}

Dataset EmptyLike(const Dataset& d) {
  Dataset out;
  for (size_t r = 0; r < d.num_relations(); ++r) {
    out.AddRelation(d.relation(r).schema());
  }
  return out;
}

Dataset CopyTuples(const Dataset& src, const std::vector<Gid>& gids) {
  Dataset out = EmptyLike(src);
  for (Gid g : gids) out.AppendTuple(src.relation_of(g), src.tuple(g));
  return out;
}

// The held-back tuples as APPEND batches of kBatch rows in stream order,
// each batch ordered stably by relation. An APPEND request carries one tuple
// block per relation in relation order (MakeAppendRequest groups them), and
// dcerd returns the assigned gids in that order; ordering the rows the same
// way sends the same bytes and lets reply gids be zipped with the rows.
using Batch = std::vector<std::pair<uint32_t, Row>>;

std::vector<Batch> MakeBatches(const Dataset& d, std::vector<Gid>* held) {
  std::vector<Batch> out;
  for (size_t i = 0; i < held->size(); i += kBatch) {
    const auto first = held->begin() + i;
    const auto last = held->begin() + std::min(held->size(), i + kBatch);
    std::stable_sort(first, last, [&d](Gid a, Gid b) {
      return d.relation_of(a) < d.relation_of(b);
    });
    Batch& rows = out.emplace_back();
    for (auto it = first; it != last; ++it) {
      rows.emplace_back(d.relation_of(*it), d.tuple(*it));
    }
  }
  return out;
}

// Held-back sample: in every relation, a seeded share `hold_back` of its
// tuples; the union is streamed in one seeded order. The prefix keeps the
// generator's order.
struct Split {
  std::vector<Gid> prefix;     // generator gids, in gid order
  std::vector<Gid> held;       // generator gids, in the order sent
  std::vector<Batch> batches;  // `held` as APPEND batches
};

Split SplitDataset(const Dataset& d, double hold_back, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::vector<Gid>> by_rel(d.num_relations());
  for (Gid g = 0; g < d.num_tuples(); ++g) by_rel[d.relation_of(g)].push_back(g);
  std::vector<char> held(d.num_tuples(), 0);
  Split s;
  for (auto& gids : by_rel) {
    std::shuffle(gids.begin(), gids.end(), rng);
    const size_t k = static_cast<size_t>(hold_back * gids.size() + 0.5);
    for (size_t i = 0; i < k; ++i) {
      held[gids[i]] = 1;
      s.held.push_back(gids[i]);
    }
  }
  std::shuffle(s.held.begin(), s.held.end(), rng);
  s.batches = MakeBatches(d, &s.held);
  for (Gid g = 0; g < d.num_tuples(); ++g) {
    if (!held[g]) s.prefix.push_back(g);
  }
  return s;
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Gamma {
  std::vector<std::pair<Gid, Gid>> pairs;
  std::vector<uint64_t> ml_keys;

  bool operator==(const Gamma&) const = default;

  uint64_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [a, b] : pairs) h = Fnv(h, (uint64_t{a} << 32) | b);
    for (uint64_t k : ml_keys) h = Fnv(h, k);
    return h;
  }
};

std::string Describe(const Gamma& g) {
  return std::to_string(g.pairs.size()) + " pairs, " +
         std::to_string(g.ml_keys.size()) + " ML facts";
}

Gamma GammaOf(const dcer::GammaSnapshot& s) {
  return {s.MatchedPairs(), s.ValidatedMlKeys()};
}

// Pairwise precision/recall/F over E_id, computed here from the generator's
// entity ids (not through the program's evaluator).
void ScorePairs(const std::vector<std::pair<Gid, Gid>>& pairs,
                const std::vector<uint64_t>& entity, RepResult* out) {
  constexpr uint64_t kNone = dcer::GroundTruth::kNoEntity;
  std::unordered_map<uint64_t, uint64_t> cluster;
  for (uint64_t e : entity) {
    if (e != kNone) ++cluster[e];
  }
  uint64_t true_pairs = 0;
  for (const auto& [e, n] : cluster) true_pairs += n * (n - 1) / 2;
  uint64_t tp = 0;
  for (const auto& [a, b] : pairs) {
    if (entity[a] != kNone && entity[a] == entity[b]) ++tp;
  }
  out->precision = pairs.empty() ? 0 : static_cast<double>(tp) / pairs.size();
  out->recall = true_pairs == 0 ? 0 : static_cast<double>(tp) / true_pairs;
  const double pr = out->precision + out->recall;
  out->f1 = pr == 0 ? 0 : 2 * out->precision * out->recall / pr;
}

// The reader connection: RESOLVE and SAME in alternation, closed loop, until
// the writer finishes. Targets are drawn among gids visible at send time;
// half the SAME probes ask about a true duplicate pair of the prefix so that
// true answers occur.
struct ReaderShared {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> acked_version{0};
  std::atomic<uint64_t> visible{0};
};

struct ReaderOutcome {
  std::vector<double> latency_us;
  uint64_t failed = 0;
  uint64_t stale_replies = 0;  // version below the last acked one
  std::vector<std::pair<Gid, Gid>> same_true;
  std::vector<std::pair<Gid, std::vector<Gid>>> classes;  // size > 1 only
};

void ReaderLoop(dcer::service::ResolverClient* client, ReaderShared* shared,
                const std::vector<std::pair<Gid, Gid>>* dup_pairs,
                uint64_t seed, SpanLog* log, ReaderOutcome* out) {
  std::mt19937_64 rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  for (uint64_t i = 0; !shared->done.load(std::memory_order_acquire); ++i) {
    const uint64_t acked = shared->acked_version.load();
    const uint64_t n = shared->visible.load();
    dcer::service::Response resp;
    dcer::Status st;
    const bool same = i % 2 == 1;
    Gid a = static_cast<Gid>(rng() % n);
    Gid b = static_cast<Gid>(rng() % n);
    if (same && !dup_pairs->empty() && rng() % 2 == 0) {
      std::tie(a, b) = (*dup_pairs)[rng() % dup_pairs->size()];
    }
    const double t0 = NowSeconds();
    {
      Scoped span(log, same ? "service.query_same" : "service.query_resolve",
                  "service");
      st = same ? client->SameEntity(a, b, &resp) : client->Resolve(a, &resp);
    }
    out->latency_us.push_back((NowSeconds() - t0) * 1e6);
    if (!st.ok()) {
      ++out->failed;
      continue;
    }
    if (resp.snapshot_version < acked) ++out->stale_replies;
    if (same && resp.value) out->same_true.emplace_back(a, b);
    if (!same && resp.gids.size() > 1) out->classes.emplace_back(a, resp.gids);
  }
}

// Times the layers on their own over the grown dataset: HyPart, the
// worker-form engines over its fragments, the full-view engine and its
// fixpoint, ProfileStore::Sync, MakeSnapshot, the APPEND codec, and an
// in-process replay of the stream through Resolver::Append for the
// per-append chase counters dcerd does not export.
void RunProbe(const std::string& rules_text, GenDataset& gd,
              const Split& split, const Dataset& grown,
              std::vector<std::string>* errors, SpanLog* log,
              ProbeResult* probe) {
  Scoped probe_span(log, "probe", "bench");
  probe->intern_arena_bytes = grown.pool().ByteSize();
  {
    Scoped span(log, "ml.profile_sync", "ml");
    dcer::ProfileStore store(&grown.pool());
    const double t0 = NowSeconds();
    store.Sync();
    probe->profile_sync_s = NowSeconds() - t0;
  }
  dcer::DMatchOptions dmo;
  dmo.num_workers = kWorkers;
  const dcer::ChaseEngine::Options engine_options =
      dcer::ChaseEngine::FromEngineOptions(dmo, &dcer::ThreadPool::Global());
  {
    const dcer::RuleSet rules = ColdRules(gd, rules_text, grown, errors);
    dcer::HyPartOptions hpo;
    hpo.num_workers = kWorkers;
    dcer::Partition part;
    {
      Scoped span(log, "partition.hypart", "partition");
      const double t0 = NowSeconds();
      part = dcer::HyPart(grown, rules, hpo);
      probe->hypart_s = NowSeconds() - t0;
    }
    for (int w = 0; w < kWorkers; ++w) {
      Scoped span(log, "parallel.worker_setup", "parallel");
      const double t0 = NowSeconds();
      dcer::MatchContext ctx(grown);
      dcer::ChaseEngine engine(&part.fragments[w], &part.rule_views[w],
                               &rules, &gd.registry, &ctx, engine_options);
      probe->worker_setup_max_s =
          std::max(probe->worker_setup_max_s, NowSeconds() - t0);
    }
  }
  {
    const dcer::RuleSet rules = ColdRules(gd, rules_text, grown, errors);
    const dcer::DatasetView view = dcer::DatasetView::Full(grown);
    dcer::MatchContext ctx(grown);
    double t0 = NowSeconds();
    std::unique_ptr<dcer::ChaseEngine> engine;
    {
      Scoped span(log, "chase.engine_setup", "chase");
      engine = std::make_unique<dcer::ChaseEngine>(
          &view, &rules, &gd.registry, &ctx,
          dcer::ChaseEngine::FromEngineOptions(dcer::MatchOptions{},
                                               &dcer::ThreadPool::Global()));
      probe->engine_setup_s = NowSeconds() - t0;
    }
    {
      Scoped span(log, "chase.fixpoint", "chase");
      t0 = NowSeconds();
      dcer::Delta delta, rest;
      engine->Deduce(&delta);
      engine->IncDeduce(delta, &rest);
      probe->fixpoint_s = NowSeconds() - t0;
    }
    std::vector<double> publish_ms;
    for (int i = 0; i < 5; ++i) {
      Scoped span(log, "service.publish", "service");
      t0 = NowSeconds();
      auto snap = ctx.MakeSnapshot(static_cast<uint64_t>(i) + 1);
      publish_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    probe->publish_ms = Median(publish_ms);
  }
  const std::vector<Batch>& batches = split.batches;
  {
    Scoped span(log, "service.append_codec", "service");
    std::vector<double> codec_us;
    for (const auto& rows : batches) {
      const double t0 = NowSeconds();
      dcer::service::Request req =
          dcer::service::MakeAppendRequest(gd.dataset, rows);
      std::vector<uint8_t> bytes;
      dcer::service::EncodeRequest(req, &bytes);
      dcer::service::Request decoded;
      dcer::TupleBatch tuples;
      const bool ok =
          dcer::service::DecodeRequest(bytes, &decoded) ==
              dcer::wire::WireError::kOk &&
          dcer::service::DecodeAppendBlocks(decoded, gd.dataset, &tuples) ==
              dcer::wire::WireError::kOk &&
          tuples.size() == rows.size();
      codec_us.push_back((NowSeconds() - t0) * 1e6);
      if (!ok) {
        errors->push_back("APPEND codec round trip lost tuples");
        break;
      }
    }
    probe->append_codec_us = Median(codec_us);
  }
  {
    Scoped span(log, "probe.replay", "bench");
    Dataset prefix = CopyTuples(gd.dataset, split.prefix);
    dcer::RuleSet rules = ColdRules(gd, rules_text, prefix, errors);
    auto resolver =
        dcer::Resolver::Open(std::move(prefix), std::move(rules), &gd.registry);
    std::vector<double> append_ms;
    uint64_t seeded = 0, rounds = 0;
    for (const auto& rows : batches) {
      dcer::TupleBatch batch;
      for (const auto& [rel, row] : rows) batch.Add(rel, row);
      Scoped span(log, "chase.append_inprocess", "chase");
      const double t0 = NowSeconds();
      dcer::AppendOutcome o = resolver->Append(std::move(batch));
      append_ms.push_back((NowSeconds() - t0) * 1e3);
      seeded += o.report.chase.seeded_joins;
      rounds += o.report.chase.inc_rounds;
    }
    const double n = static_cast<double>(std::max<size_t>(1, batches.size()));
    probe->append_inprocess_ms = Median(append_ms);
    probe->append_seeded_joins = seeded / n;
    probe->append_inc_rounds = rounds / n;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // kilobytes on Linux
}

namespace {

// What a repetition leaves for the probe: its inputs and the grown dataset.
struct Inputs {
  std::unique_ptr<GenDataset> gd;
  std::string rules_text;
  Split split;
  Dataset grown;
};

RepResult RunPipeline(const WorkloadSpec& spec, uint64_t seed, SpanLog* log,
                      SpanLog* reader_log, Inputs* in) {
  namespace svc = dcer::service;
  RepResult r;
  auto fail = [&r](std::string what) { r.errors.push_back(std::move(what)); };
  const double rep_start = NowSeconds();

  // ---- setup -------------------------------------------------------------
  std::unique_ptr<GenDataset>& gd = in->gd;
  {
    Scoped span(log, "relational.generate", "relational");
    gd = Generate(spec);
  }
  r.generate_s = NowSeconds() - rep_start;
  in->rules_text = gd->rules.ToString(gd->dataset);
  const std::string& rules_text = in->rules_text;
  Split& split = in->split;
  Dataset prefix;
  {
    Scoped span(log, "relational.split", "relational");
    split = SplitDataset(gd->dataset, spec.hold_back, seed);
    prefix = CopyTuples(gd->dataset, split.prefix);
  }
  dcer::RuleSet rules;
  if (dcer::Status st =
          dcer::ParseRuleSet(rules_text, prefix, gd->registry, &rules);
      !st.ok()) {
    fail("rules failed to parse: " + st.ToString());
    return r;
  }
  // True duplicate pairs inside the prefix, for the reader's SAME probes.
  std::vector<std::pair<Gid, Gid>> dup_pairs;
  {
    std::unordered_map<uint64_t, Gid> first_of;
    for (Gid p = 0; p < split.prefix.size(); ++p) {
      const uint64_t e = gd->truth.entity(split.prefix[p]);
      if (e == dcer::GroundTruth::kNoEntity) continue;
      auto [it, fresh] = first_of.emplace(e, p);
      if (!fresh) dup_pairs.emplace_back(it->second, p);
    }
  }
  const uint64_t prefix_size = prefix.num_tuples();
  std::unique_ptr<dcer::Resolver> opened;
  {
    Scoped span(log, "service.open_sequential", "chase");
    opened = dcer::Resolver::Open(std::move(prefix), rules, &gd->registry);
  }
  ++r.attempted;
  auto daemon = std::make_unique<svc::ResolverDaemon>(std::move(opened));
  svc::ResolverClient writer, reader;
  {
    Scoped span(log, "service.start", "service");
    dcer::Status st = daemon->Start();
    if (st.ok()) st = writer.Connect(daemon->port());
    if (st.ok()) st = reader.Connect(daemon->port());
    if (!st.ok()) {
      fail("dcerd start/connect failed: " + st.ToString());
      return r;
    }
  }
  r.setup_s = NowSeconds() - rep_start;

  // ---- stream ------------------------------------------------------------
  const dcer::obs::MetricsSnapshot registry_before =
      dcer::obs::MetricsRegistry::Global().Snapshot();
  ReaderShared shared;
  shared.visible.store(prefix_size);
  shared.acked_version.store(daemon->resolver().Snapshot()->version());
  ReaderOutcome reads;
  std::vector<Gid> appended;  // generator gids, in assigned-gid order
  const double stream_start = NowSeconds();
  {
    Scoped stream_span(log, "stream", "bench");
    std::thread reader_thread(ReaderLoop, &reader, &shared, &dup_pairs, seed,
                              reader_log, &reads);
    for (const Batch& rows : split.batches) {
      svc::Response resp;
      const double t0 = NowSeconds();
      dcer::Status st;
      {
        Scoped span(log, "service.append", "service");
        st = writer.Append(gd->dataset, rows, &resp);
      }
      r.append_ms.push_back((NowSeconds() - t0) * 1e3);
      ++r.appends;
      if (!st.ok() || resp.gids.size() != rows.size()) {
        ++r.failed;
        fail("APPEND failed: " + st.ToString());
        break;
      }
      // dcerd assigns dense gids in arrival order; the grown dataset below
      // relies on it.
      for (size_t k = 0; k < resp.gids.size(); ++k) {
        if (resp.gids[k] != prefix_size + appended.size()) {
          fail("APPEND reply gids are not the next dense gids");
          break;
        }
        appended.push_back(split.held[appended.size()]);
      }
      if (!r.errors.empty()) break;
      shared.acked_version.store(resp.snapshot_version);
      shared.visible.store(prefix_size + appended.size());
    }
    shared.done.store(true, std::memory_order_release);
    reader_thread.join();
  }
  r.stream_s = NowSeconds() - stream_start;
  r.stream_peak_rss_mb = PeakRssMb();
  r.streamed_tuples = appended.size();
  r.stream_registry =
      dcer::obs::MetricsRegistry::Global().Snapshot().Delta(registry_before);
  r.query_us = std::move(reads.latency_us);
  r.queries = r.query_us.size();
  r.failed += reads.failed;
  if (reads.stale_replies > 0) {
    fail(std::to_string(reads.stale_replies) +
         " query replies carried a version below the last acked APPEND");
  }
  const std::shared_ptr<const dcer::GammaSnapshot> served =
      daemon->resolver().Snapshot();
  const size_t served_tuples = daemon->resolver().dataset().num_tuples();
  {
    Scoped span(log, "service.stop", "service");
    writer.Close();
    reader.Close();
    daemon.reset();
  }
  r.attempted += r.appends + r.queries;
  if (!r.errors.empty()) return r;

  // ---- batch -------------------------------------------------------------
  std::vector<Gid> grown_order = split.prefix;
  grown_order.insert(grown_order.end(), appended.begin(), appended.end());
  Dataset& grown = in->grown;
  {
    Scoped span(log, "relational.grow", "relational");
    grown = CopyTuples(gd->dataset, grown_order);
  }
  r.tuples = grown.num_tuples();
  if (served_tuples != grown.num_tuples()) {
    fail("dcerd holds " + std::to_string(served_tuples) + " tuples, expected " +
         std::to_string(grown.num_tuples()));
    return r;
  }

  Gamma gamma_parallel, gamma_seq;
  {
    dcer::RuleSet grown_rules = ColdRules(*gd, rules_text, grown, &r.errors);
    dcer::ResolverOptions options;
    options.num_workers = kWorkers;
    const double cpu0 = CpuSeconds();
    const double t0 = NowSeconds();
    std::unique_ptr<dcer::Resolver> resolver;
    {
      Scoped span(log, "parallel.resolve", "parallel");
      resolver = dcer::Resolver::OpenBorrowed(grown, std::move(grown_rules),
                                              &gd->registry, options);
      r.resolve_s = NowSeconds() - t0;
      r.cpu_resolve_s = CpuSeconds() - cpu0;
      r.dmatch = *resolver->dmatch_report();
      // The program reports its own partition and BSP seconds. The rest of
      // the call (engine::DMatch tearing down its workers, the Resolver's
      // first publish) has no finer split from outside: it is its own
      // unattributed line.
      const double bsp_start = t0 + r.dmatch.partition_seconds;
      const double bsp_end = bsp_start + r.dmatch.er_seconds;
      log->Add("partition.dmatch_hypart", "partition", t0, bsp_start);
      log->Add("parallel.bsp", "parallel", bsp_start, bsp_end);
      log->Add("parallel.teardown", "unattributed", bsp_end, t0 + r.resolve_s);
    }
    gamma_parallel = GammaOf(*resolver->Snapshot());
  }
  ++r.attempted;
  {
    dcer::RuleSet grown_rules = ColdRules(*gd, rules_text, grown, &r.errors);
    const double cpu0 = CpuSeconds();
    const double t0 = NowSeconds();
    std::unique_ptr<dcer::Resolver> resolver;
    {
      Scoped span(log, "chase.resolve_sequential", "chase");
      resolver = dcer::Resolver::OpenBorrowed(grown, std::move(grown_rules),
                                              &gd->registry, {});
    }
    r.resolve_seq_s = NowSeconds() - t0;
    r.cpu_resolve_seq_s = CpuSeconds() - cpu0;
    r.seq_chase = resolver->match_report()->chase;
    r.seq_predictions = gd->registry.num_predictions();
    r.seq_cache_hits = gd->registry.num_cache_hits();
    gamma_seq = GammaOf(*resolver->Snapshot());
  }
  ++r.attempted;

  // ---- checks ------------------------------------------------------------
  {
    Scoped span(log, "check", "bench");
    if (!(gamma_parallel == gamma_seq)) {
      fail("4-worker Γ (" + Describe(gamma_parallel) +
           ") differs from the sequential Γ (" + Describe(gamma_seq) +
           ") (Prop. 4/8)");
    }
    const Gamma gamma_served = GammaOf(*served);
    if (!(gamma_served == gamma_seq)) {
      fail(std::string(gamma_served.pairs == gamma_seq.pairs ? "pairs equal"
                                                             : "pairs differ") +
           (gamma_served.ml_keys == gamma_seq.ml_keys ? ", ML equal; "
                                                      : ", ML differ; ") +
           "served Γ after the stream (" + Describe(gamma_served) +
           ") differs from a from-scratch resolve of the grown dataset (" +
           Describe(gamma_seq) + ") (Church-Rosser)");
    }
    uint64_t retracted = 0;
    for (const auto& [a, b] : reads.same_true) {
      if (!served->SameEntity(a, b)) ++retracted;
    }
    for (const auto& [g, members] : reads.classes) {
      for (Gid m : members) {
        if (!served->SameEntity(g, m)) ++retracted;
      }
    }
    if (retracted > 0) {
      fail(std::to_string(retracted) +
           " mid-stream match answers do not hold in the final Γ");
    }
    std::vector<uint64_t> entity(grown_order.size());
    for (size_t g = 0; g < grown_order.size(); ++g) {
      entity[g] = gd->truth.entity(grown_order[g]);
    }
    ScorePairs(gamma_seq.pairs, entity, &r);
    if (!(r.f1 > 0)) fail("F1 is zero");
    r.gamma_hash = gamma_seq.Hash();
  }
  r.pipeline_s = NowSeconds() - rep_start;
  return r;
}

}  // namespace

RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, SpanLog* log,
                        SpanLog* reader_log, ProbeResult* probe) {
  Inputs in;
  RepResult r;
  {
    Scoped span(log, "repetition", "bench");
    r = RunPipeline(spec, seed, log, reader_log, &in);
  }
  if (probe != nullptr && r.errors.empty()) {
    RunProbe(in.rules_text, *in.gd, in.split, in.grown, &r.errors, log, probe);
  }
  return r;
}

}  // namespace e2ebench
