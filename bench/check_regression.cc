// Guardrail against silent executor regressions: re-runs the pooled DMatch
// configuration that BENCH_core.json records (ecommerce num_customers=800,
// 4 workers, threads=2, best of 3) and fails when the fresh wall clock
// regresses more than the tolerance over the recorded baseline, or when the
// serialized wire bytes per run regress over the recorded dmatch_wire_bytes
// (bytes are deterministic, so that gate needs no noise normalization).
//
// Usage: check_regression <path/to/BENCH_core.json> [tolerance]
//   tolerance — allowed relative slowdown, default 0.25 (25%).
//
// A missing baseline file or field is reported and *passes*: a fresh
// checkout (or a baseline regenerated on different hardware mid-rebase)
// should not fail CI; committing the regenerated BENCH_core.json re-arms
// the check. The bit-identity of the outputs is asserted unconditionally.
//
// Shared or 1-core hosts add wall-clock noise that is not a code
// regression, so the absolute comparison is cross-checked against a
// noise-normalized one: the fresh pooled/sequential ratio vs the
// baseline's pooled/sequential ratio. Host-wide slowness moves both paths
// together and passes the normalized check; a real regression in the
// pooled executor moves only the pooled number and fails both.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/workloads.h"
#include "chase/deduce.h"
#include "chase/match_context.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "ml/profile.h"
#include "ml/similarity.h"
#include "obs/exposition.h"
#include "relational/string_pool.h"
#include "rules/parser.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/resolver.h"

namespace dcer {
namespace {

// Minimal scan for "key": <number> in a flat JSON object; returns -1 when
// the key is absent. Good enough for the file this repo writes itself.
double JsonNumber(const std::string& text, const char* key) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  pos += needle.size();
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  return std::atof(text.c_str() + pos);
}

// The "bytes" value of every superstep object in the baseline's
// dmatch_supersteps array, in step order. The needle requires the opening
// quote, so "outbox_bytes" does not match. Empty when the baseline predates
// the array.
std::vector<double> JsonStepBytes(const std::string& text) {
  std::vector<double> out;
  size_t pos = text.find("\"dmatch_supersteps\":");
  if (pos == std::string::npos) return out;
  pos = text.find('[', pos);
  if (pos == std::string::npos) return out;
  // The array nests worker_seconds arrays, so scan to the matching bracket.
  int depth = 0;
  size_t end = pos;
  for (; end < text.size(); ++end) {
    if (text[end] == '[') ++depth;
    if (text[end] == ']' && --depth == 0) break;
  }
  while (true) {
    pos = text.find("\"bytes\":", pos);
    if (pos == std::string::npos || pos > end) break;
    out.push_back(std::atof(text.c_str() + pos + std::strlen("\"bytes\":")));
    ++pos;
  }
  return out;
}

// One best-of-3 run of the tournament cap=0 cascade — the protocol
// micro_core records as inc_full/inc_half: with dependency_capacity = 0 the
// full pass records nothing in H, the leaf matches arrive as external
// facts, and IncDeduce recovers the whole bracket through seeded re-joins.
// `leaf_limit` sets |Δ|.
struct IncCascadeRun {
  double seconds = 0;
  size_t leaves = 0;
};

// Fresh columnar numbers for the gates below: the equality-index build on
// TPC-H SF 1 (the exact loop micro_core records as
// index_build_columnar_seconds), the interning pool's arena footprint
// after generation, and the strings the engine's scored-column ProfileStore
// profiles (both deterministic for the fixed generator seed).
struct ColumnarFresh {
  double index_build_seconds = 0;
  double arena_bytes = 0;
  double profiled_strings = 0;
};

ColumnarFresh MeasureColumnarFresh() {
  ColumnarFresh out;
  TpchOptions options;
  options.scale_factor = 1.0;
  auto gd = MakeTpch(options);
  const Dataset& d = gd->dataset;
  out.arena_bytes = static_cast<double>(d.pool().arena_bytes());
  if (auto store = ChaseEngine::ScoredProfiles(d, gd->rules, gd->registry)) {
    out.profiled_strings = static_cast<double>(store->size());
  }
  const Relation* orders = nullptr;
  for (size_t r = 0; r < d.num_relations(); ++r) {
    if (d.relation(r).schema().name() == "Orders") orders = &d.relation(r);
  }
  const size_t n = orders->num_rows();
  constexpr size_t kCustAttr = 1;  // Orders.custkey
  constexpr int kBuildReps = 20;
  std::unordered_map<uint64_t, std::vector<uint32_t>, CodeHash> index;
  Timer t;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    index.clear();
    for (size_t i = 0; i < n; ++i) {
      if (!orders->is_null(i, kCustAttr)) {
        index[orders->code_at(i, kCustAttr)].push_back(
            static_cast<uint32_t>(i));
      }
    }
  }
  out.index_build_seconds = t.ElapsedSeconds() / kBuildReps;
  if (index.empty()) std::printf("unreachable\n");
  return out;
}

// Fresh batch-kernel numbers for the vectorized-similarity gates: the exact
// loops micro_core records as token_jaccard_batch_ns and ml_probe_batch_ns —
// product descriptions from ecommerce num_customers=200 interned into a
// local pool, a warm ProfileStore, and one-vs-many calls over a
// 256-candidate batch. Best of 3 measurements; the batch ≡ pairwise
// bit-identity is asserted alongside, since a "fast" batch path that drifts
// from the scalar kernels is a correctness bug, not a win.
struct BatchFresh {
  double token_jaccard_batch_ns = 0;
  double ml_probe_batch_ns = 0;
  bool scores_equal = true;
};

BatchFresh MeasureBatchFresh() {
  BatchFresh out;
  EcommerceOptions options;
  options.num_customers = 200;
  auto gd = MakeEcommerce(options);
  const Relation& products = gd->dataset.relation(2);  // Products
  StringPool pool;
  std::vector<uint32_t> ids;
  ids.reserve(products.num_rows());
  for (size_t r = 0; r < products.num_rows(); ++r) {
    ids.push_back(pool.Intern(products.at(r, 3).AsString()));  // desc
  }
  ProfileStore store(&pool);
  store.Sync();
  constexpr size_t kBatch = 256;
  constexpr int kReps = 2'000;
  std::vector<uint32_t> cands(kBatch);
  for (size_t i = 0; i < kBatch; ++i) cands[i] = ids[(i * 7) % ids.size()];
  std::vector<double> scores(kBatch);
  std::vector<uint8_t> preds(kBatch);
  for (int rep = 0; rep < 3; ++rep) {
    double sink = 0;
    Timer t;
    for (int r = 0; r < kReps; ++r) {
      ScoreTokenJaccardBatch(store, ids[r % ids.size()], cands.data(), kBatch,
                             scores.data());
      sink += scores[static_cast<size_t>(r) % kBatch];
    }
    const double ns =
        t.ElapsedSeconds() * 1e9 / (kReps * static_cast<double>(kBatch));
    if (rep == 0 || ns < out.token_jaccard_batch_ns) {
      out.token_jaccard_batch_ns = ns;
    }
    if (sink < 0) std::printf("unreachable\n");
  }
  for (int rep = 0; rep < 3; ++rep) {
    size_t sink = 0;
    Timer t;
    for (int r = 0; r < kReps; ++r) {
      PredictTokenJaccardBatch(store, ids[r % ids.size()], cands.data(),
                               kBatch, 0.5, preds.data());
      sink += preds[static_cast<size_t>(r) % kBatch];
    }
    const double ns =
        t.ElapsedSeconds() * 1e9 / (kReps * static_cast<double>(kBatch));
    if (rep == 0 || ns < out.ml_probe_batch_ns) out.ml_probe_batch_ns = ns;
    if (sink == size_t(-1)) std::printf("unreachable\n");
  }
  for (size_t p = 0; p < 8 && out.scores_equal; ++p) {
    const uint32_t probe = ids[p * 13 % ids.size()];
    ScoreTokenJaccardBatch(store, probe, cands.data(), kBatch, scores.data());
    PredictTokenJaccardBatch(store, probe, cands.data(), kBatch, 0.5,
                             preds.data());
    for (size_t i = 0; i < kBatch; ++i) {
      const double ref = TokenJaccard(pool.view(probe), pool.view(cands[i]));
      if (scores[i] != ref || (preds[i] != 0) != (ref >= 0.5)) {
        out.scores_equal = false;
        break;
      }
    }
  }
  return out;
}

// Fresh dcerd numbers for the service gates: the exact configuration
// micro_core records as served_query_p50/p99 and update_visibility_lag —
// ecommerce num_customers=400, last 64 tuples in 8-tuple APPEND frames over
// loopback TCP, 32 RESOLVE/SAME per batch plus 512 trailing queries.
struct ServiceFresh {
  bool ok = false;
  double p99_seconds = 0;
  double mean_lag_seconds = 0;
};

ServiceFresh MeasureServiceFresh() {
  ServiceFresh out;
  EcommerceOptions options;
  options.num_customers = 400;
  auto gd = MakeEcommerce(options);
  Dataset dst;
  for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
    dst.AddRelation(gd->dataset.relation(r).schema());
  }
  RuleSet rules;
  Status st =
      ParseRuleSet(gd->rules.ToString(gd->dataset), dst, gd->registry, &rules);
  if (!st.ok()) return out;
  constexpr size_t kHeldBack = 64;
  constexpr size_t kBatchSize = 8;
  const size_t total = gd->dataset.num_tuples();
  const size_t cut = total - kHeldBack;
  for (Gid g = 0; g < cut; ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    dst.AppendTuple(loc.relation,
                    gd->dataset.relation(loc.relation).row(loc.row));
  }
  service::ResolverDaemon daemon(
      Resolver::Open(std::move(dst), rules, &gd->registry));
  if (!daemon.Start().ok()) return out;
  service::ResolverClient client;
  if (!client.Connect(daemon.port()).ok()) return out;

  Rng rng(17);
  std::vector<double> latencies;
  out.ok = true;
  auto run_queries = [&](int count) {
    for (int q = 0; q < count && out.ok; ++q) {
      service::Response qr;
      Timer t;
      Status s = q % 2 == 0
                     ? client.Resolve(static_cast<Gid>(rng.Uniform(total)), &qr)
                     : client.SameEntity(static_cast<Gid>(rng.Uniform(total)),
                                         static_cast<Gid>(rng.Uniform(total)),
                                         &qr);
      latencies.push_back(t.ElapsedSeconds());
      if (!s.ok()) out.ok = false;
    }
  };
  std::vector<std::pair<uint32_t, Row>> rows;
  for (Gid g = static_cast<Gid>(cut); g < total && out.ok; ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    rows.emplace_back(loc.relation,
                      gd->dataset.relation(loc.relation).row(loc.row));
    if (rows.size() == kBatchSize || g + 1 == total) {
      service::Response resp;
      if (!client.Append(gd->dataset, rows, &resp).ok()) {
        out.ok = false;
        break;
      }
      rows.clear();
      run_queries(32);
    }
  }
  run_queries(512);

  service::DaemonStats ds = daemon.stats();
  out.mean_lag_seconds =
      ds.visibility_lag_samples > 0
          ? ds.total_visibility_lag_seconds / ds.visibility_lag_samples
          : 0.0;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    out.p99_seconds =
        latencies[std::min(latencies.size() - 1, latencies.size() * 99 / 100)];
  }
  client.Close();
  daemon.Stop();
  return out;
}

// One raw HTTP/1.0 GET against 127.0.0.1:port. Returns the full response
// (status line + headers + body) or an empty string on any socket error.
// Deliberately not the ResolverClient: the scrape path must work for a stock
// Prometheus agent that speaks only HTTP.
std::string HttpGet(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

// Exposition smoke gate: structural, so it runs even without a baseline.
// Spins up a small dcerd with the HTTP scrape listener enabled, pushes one
// APPEND through the queue (so the request histograms have samples), then
// checks that both scrape paths — the METRICS wire verb and a raw
// `GET /metrics` — return Prometheus text our own parser round-trips, and
// that the three per-request histograms introduced for the telemetry plane
// are present.
bool ExpositionSmoke() {
  EcommerceOptions options;
  options.num_customers = 60;
  auto gd = MakeEcommerce(options);
  Dataset dst;
  for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
    dst.AddRelation(gd->dataset.relation(r).schema());
  }
  RuleSet rules;
  Status st =
      ParseRuleSet(gd->rules.ToString(gd->dataset), dst, gd->registry, &rules);
  if (!st.ok()) {
    std::printf("FAIL: exposition smoke: rule parse: %s\n",
                st.message().c_str());
    return false;
  }
  const size_t total = gd->dataset.num_tuples();
  const size_t cut = total - 8;
  for (Gid g = 0; g < cut; ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    dst.AppendTuple(loc.relation,
                    gd->dataset.relation(loc.relation).row(loc.row));
  }
  service::DaemonOptions daemon_options;
  daemon_options.metrics_port = 0;  // ephemeral HTTP scrape listener
  service::ResolverDaemon daemon(
      Resolver::Open(std::move(dst), rules, &gd->registry), daemon_options);
  if (!daemon.Start().ok()) {
    std::printf("FAIL: exposition smoke: daemon start\n");
    return false;
  }
  bool ok = true;
  {
    service::ResolverClient client;
    ok = client.Connect(daemon.port()).ok();
    std::vector<std::pair<uint32_t, Row>> rows;
    for (Gid g = static_cast<Gid>(cut); g < total && ok; ++g) {
      TupleLoc loc = gd->dataset.loc(g);
      rows.emplace_back(loc.relation,
                        gd->dataset.relation(loc.relation).row(loc.row));
    }
    service::Response resp;
    if (ok) ok = client.Append(gd->dataset, rows, &resp).ok();
    if (ok) ok = client.Resolve(0, &resp).ok();  // publishes the batch
    const char* kFamilies[] = {"dcerd_queue_wait_seconds",
                               "dcerd_exec_seconds",
                               "dcerd_publish_lag_seconds"};
    if (ok) {
      service::Response metrics;
      ok = client.Metrics(&metrics).ok();
      if (ok) {
        obs::ExpositionParse parsed = obs::ParseExposition(metrics.text);
        if (!parsed.ok()) {
          std::printf("FAIL: exposition smoke: METRICS verb text did not "
                      "parse: %s\n",
                      parsed.error.c_str());
          ok = false;
        }
        for (const char* fam : kFamilies) {
          if (ok && !parsed.HasFamily(fam)) {
            std::printf("FAIL: exposition smoke: METRICS verb missing "
                        "family %s\n",
                        fam);
            ok = false;
          }
        }
      } else {
        std::printf("FAIL: exposition smoke: METRICS verb errored\n");
      }
    }
    if (ok) {
      const std::string http = HttpGet(daemon.metrics_port(), "/metrics");
      const size_t body_at = http.find("\r\n\r\n");
      if (http.compare(0, 12, "HTTP/1.0 200") != 0 ||
          body_at == std::string::npos) {
        std::printf("FAIL: exposition smoke: GET /metrics did not return "
                    "200\n");
        ok = false;
      } else {
        obs::ExpositionParse parsed =
            obs::ParseExposition(http.substr(body_at + 4));
        if (!parsed.ok()) {
          std::printf("FAIL: exposition smoke: GET /metrics body did not "
                      "parse: %s\n",
                      parsed.error.c_str());
          ok = false;
        }
        for (const char* fam : kFamilies) {
          if (ok && !parsed.HasFamily(fam)) {
            std::printf("FAIL: exposition smoke: GET /metrics missing "
                        "family %s\n",
                        fam);
            ok = false;
          }
        }
      }
    }
    if (ok) {
      const std::string health = HttpGet(daemon.metrics_port(), "/healthz");
      if (health.compare(0, 12, "HTTP/1.0 200") != 0 ||
          health.find("ok") == std::string::npos) {
        std::printf("FAIL: exposition smoke: GET /healthz not ok\n");
        ok = false;
      }
    }
    client.Close();
  }
  daemon.Stop();
  if (ok) std::printf("exposition smoke: PASS (verb + HTTP scrape)\n");
  return ok;
}

IncCascadeRun RunIncCascade(size_t leaf_limit) {
  IncCascadeRun out;
  for (int rep = 0; rep < 3; ++rep) {
    auto w = MakeTournament(10, /*with_ml=*/false);
    DatasetView view = DatasetView::Full(w->dataset);
    MatchContext ctx(w->dataset);
    EngineOptions eo;
    eo.dependency_capacity = 0;
    eo.threads = 2;
    ChaseEngine::Options o =
        ChaseEngine::FromEngineOptions(eo, &ThreadPool::Global());
    ChaseEngine engine(&view, &w->up_rules, &w->registry, &ctx, o);
    Delta d0;
    engine.Deduce(&d0);
    std::vector<Fact> facts = TournamentLeafFacts(*w, leaf_limit);
    Delta seeds;
    engine.ApplyExternalFacts(facts, &seeds);
    Timer t;
    Delta cascade;
    engine.IncDeduce(seeds, &cascade);
    const double secs = t.ElapsedSeconds();
    if (rep == 0 || secs < out.seconds) out.seconds = secs;
    if (rep == 2) out.leaves = facts.size();
  }
  return out;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: check_regression <BENCH_core.json> [tolerance]\n");
    return 1;
  }
  double tolerance = argc > 2 ? std::atof(argv[2]) : 0.25;

  double baseline = -1;
  double baseline_seq = -1;
  double baseline_partial = -1;
  double baseline_incr = -1;
  double baseline_wire_bytes = -1;
  double baseline_inc_full = -1;
  double baseline_inc_ratio = -1;
  double baseline_index_build = -1;
  double baseline_arena_bytes = -1;
  double baseline_profiled = -1;
  double baseline_query_p99 = -1;
  double baseline_lag = -1;
  double baseline_tj_batch = -1;
  double baseline_probe_batch = -1;
  std::vector<double> baseline_step_bytes;
  {
    FILE* f = std::fopen(argv[1], "rb");
    if (f == nullptr) {
      std::printf("no baseline at %s; skipping regression check\n", argv[1]);
      // The structural gate needs no baseline — still run it.
      if (!ExpositionSmoke()) return 1;
      std::printf("PASS\n");
      return 0;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
    baseline = JsonNumber(text, "dmatch_pooled_wall_seconds");
    baseline_seq = JsonNumber(text, "dmatch_seq_wall_seconds");
    baseline_partial = JsonNumber(text, "dmatch_partial_eval_seconds");
    baseline_incr = JsonNumber(text, "dmatch_superstep_seconds");
    baseline_wire_bytes = JsonNumber(text, "dmatch_wire_bytes");
    baseline_inc_full = JsonNumber(text, "inc_full_seconds");
    baseline_inc_ratio = JsonNumber(text, "inc_delta_scaling_ratio");
    baseline_index_build = JsonNumber(text, "index_build_columnar_seconds");
    baseline_arena_bytes = JsonNumber(text, "intern_arena_bytes");
    baseline_profiled = JsonNumber(text, "profiled_strings");
    baseline_query_p99 = JsonNumber(text, "served_query_p99");
    baseline_lag = JsonNumber(text, "update_visibility_lag");
    baseline_tj_batch = JsonNumber(text, "token_jaccard_batch_ns");
    baseline_probe_batch = JsonNumber(text, "ml_probe_batch_ns");
    baseline_step_bytes = JsonStepBytes(text);
  }
  if (baseline <= 0) {
    std::printf("baseline lacks dmatch_pooled_wall_seconds; skipping "
                "regression check (PASS)\n");
    return 0;
  }

  // The exact configuration micro_core records as dmatch_pooled_wall_seconds.
  EcommerceOptions options;
  options.num_customers = 800;
  auto gd = MakeEcommerce(options);

  double best = 0;
  DMatchReport best_report;
  std::shared_ptr<const GammaSnapshot> pooled_snap;
  std::shared_ptr<const GammaSnapshot> seq_snap;
  for (int rep = 0; rep < 3; ++rep) {
    gd->registry.ClearCache();
    gd->registry.ResetStats();
    ResolverOptions ro;
    ro.num_workers = 4;
    ro.run_parallel = true;
    ro.threads = 2;
    auto resolver =
        Resolver::OpenBorrowed(gd->dataset, gd->rules, &gd->registry, ro);
    const DMatchReport& r = *resolver->dmatch_report();
    if (rep == 0 || r.er_seconds < best) {
      best = r.er_seconds;
      best_report = r;
    }
    if (rep == 2) pooled_snap = resolver->Snapshot();
  }
  double seq_best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // Sequential runs: bit-identity reference and noise normalizer.
    gd->registry.ClearCache();
    gd->registry.ResetStats();
    ResolverOptions ro;
    ro.num_workers = 4;
    ro.run_parallel = false;
    ro.threads = 1;
    auto resolver =
        Resolver::OpenBorrowed(gd->dataset, gd->rules, &gd->registry, ro);
    const double secs = resolver->dmatch_report()->er_seconds;
    if (rep == 0 || secs < seq_best) seq_best = secs;
    if (rep == 2) seq_snap = resolver->Snapshot();
  }
  if (pooled_snap->MatchedPairs() != seq_snap->MatchedPairs() ||
      pooled_snap->ValidatedMlKeys() != seq_snap->ValidatedMlKeys()) {
    std::printf("FAIL: pooled DMatch output differs from sequential\n");
    return 1;
  }

  double ratio = best / baseline;
  std::printf("pooled DMatch wall: fresh=%.4fs baseline=%.4fs ratio=%.3f "
              "(tolerance %.0f%%)\n",
              best, baseline, ratio, tolerance * 100);
  if (ratio > 1.0 + tolerance) {
    // Absolute regression — confirm it is the pooled path and not a slow
    // host before failing, via the pooled/sequential overhead ratio.
    if (baseline_seq > 0 && seq_best > 0) {
      double fresh_norm = best / seq_best;
      double base_norm = baseline / baseline_seq;
      double norm_ratio = fresh_norm / base_norm;
      std::printf("normalized pooled/seq: fresh=%.3f baseline=%.3f "
                  "ratio=%.3f\n",
                  fresh_norm, base_norm, norm_ratio);
      if (norm_ratio <= 1.0 + tolerance) {
        std::printf("PASS: absolute slowdown tracks the sequential path "
                    "(host noise), pooled executor overhead unchanged\n");
        return 0;
      }
    }
    std::printf("FAIL: pooled DMatch regressed %.1f%% over baseline\n",
                (ratio - 1.0) * 100);
    return 1;
  }

  // Per-phase regression checks: the partial evaluation (superstep 0) and
  // the incremental supersteps can regress independently of each other and
  // of total wall clock (e.g. a change shifting work between the phases).
  // Same noise normalization as above: host-wide slowness moves the
  // sequential wall too and passes the normalized cross-check. Baselines
  // recorded before these fields existed skip the check.
  double fresh_partial = 0;
  double fresh_incr = 0;
  for (const SuperstepStats& s : best_report.superstep_stats) {
    if (s.step == 0) {
      fresh_partial = s.max_seconds;
    } else {
      fresh_incr += s.max_seconds;
    }
  }
  // Short phases (a few ms) are dominated by scheduler jitter, so a pure
  // ratio test would flap; absolute deltas below this are never failures.
  constexpr double kPhaseSlackSeconds = 0.010;
  auto check_phase = [&](const char* name, double fresh,
                         double phase_baseline) {
    if (phase_baseline <= 0 || fresh <= 0) {
      std::printf("%s: no baseline; skipping (PASS)\n", name);
      return true;
    }
    double phase_ratio = fresh / phase_baseline;
    std::printf("%s: fresh=%.4fs baseline=%.4fs ratio=%.3f\n", name, fresh,
                phase_baseline, phase_ratio);
    if (phase_ratio <= 1.0 + tolerance) return true;
    if (fresh - phase_baseline < kPhaseSlackSeconds) {
      std::printf("  PASS: delta %.1fms below %.0fms noise floor\n",
                  (fresh - phase_baseline) * 1e3, kPhaseSlackSeconds * 1e3);
      return true;
    }
    if (baseline_seq > 0 && seq_best > 0) {
      double host_factor = seq_best / baseline_seq;
      double norm_ratio = host_factor > 0 ? phase_ratio / host_factor : 0;
      std::printf("  normalized by seq wall: host_factor=%.3f "
                  "ratio=%.3f\n",
                  host_factor, norm_ratio);
      if (norm_ratio > 0 && norm_ratio <= 1.0 + tolerance) {
        std::printf("  PASS: slowdown tracks the sequential path "
                    "(host noise)\n");
        return true;
      }
    }
    std::printf("FAIL: %s regressed %.1f%% over baseline\n", name,
                (phase_ratio - 1.0) * 100);
    return false;
  };
  if (!check_phase("partial-eval (superstep 0)", fresh_partial,
                   baseline_partial)) {
    return 1;
  }
  if (!check_phase("incremental supersteps", fresh_incr, baseline_incr)) {
    return 1;
  }

  // Wire-bytes gate: serialized comm volume is a deterministic function of
  // the workload and the codec, so any growth is a real change — a codec
  // de-optimization, routing duplicates, or a propagation-policy slip. The
  // same tolerance applies, but without noise normalization or a slack
  // floor.
  if (baseline_wire_bytes > 0) {
    const double fresh_bytes = static_cast<double>(best_report.bytes);
    const double bytes_ratio = fresh_bytes / baseline_wire_bytes;
    std::printf("wire bytes: fresh=%.0f baseline=%.0f ratio=%.3f\n",
                fresh_bytes, baseline_wire_bytes, bytes_ratio);
    if (bytes_ratio > 1.0 + tolerance) {
      std::printf("FAIL: serialized wire bytes regressed %.1f%% over "
                  "baseline\n",
                  (bytes_ratio - 1.0) * 100);
      return 1;
    }
    // Per-superstep: a shift of volume between steps can hide inside a
    // flat total.
    for (size_t i = 0; i < baseline_step_bytes.size() &&
                       i < best_report.superstep_stats.size();
         ++i) {
      const double base_b = baseline_step_bytes[i];
      if (base_b <= 0) continue;
      const double fresh_b =
          static_cast<double>(best_report.superstep_stats[i].bytes);
      if (fresh_b / base_b > 1.0 + tolerance) {
        std::printf("FAIL: superstep %zu wire bytes regressed: fresh=%.0f "
                    "baseline=%.0f\n",
                    i, fresh_b, base_b);
        return 1;
      }
    }
  } else {
    std::printf("wire bytes: no baseline; skipping (PASS)\n");
  }

  // Delta-scaling gate: the update-driven pass must cost proportional to
  // |Δ|, never to the dataset. Re-runs the tournament cap=0 cascade at the
  // full (1024) and half (512) leaf set and checks (a) the full-|Δ| wall
  // against its baseline (same slack floor + sequential-wall host
  // normalization as the phase checks) and (b) per-leaf proportionality:
  // the full/half seconds-per-leaf ratio stays near 1, or at least does not
  // grow over the baseline's recorded ratio. Baselines recorded before
  // these fields existed skip the gate.
  if (baseline_inc_full > 0) {
    IncCascadeRun full = RunIncCascade(size_t(-1));
    IncCascadeRun half = RunIncCascade(512);
    if (!check_phase("inc cascade (full |delta|)", full.seconds,
                     baseline_inc_full)) {
      return 1;
    }
    const double full_per_leaf =
        full.leaves > 0 ? full.seconds / full.leaves : 0;
    const double half_per_leaf =
        half.leaves > 0 ? half.seconds / half.leaves : 0;
    const double fresh_ratio =
        half_per_leaf > 0 ? full_per_leaf / half_per_leaf : 0;
    std::printf("delta scaling: full/half secs-per-leaf ratio fresh=%.3f "
                "baseline=%.3f\n",
                fresh_ratio, baseline_inc_ratio);
    const bool proportional = fresh_ratio > 0 && fresh_ratio <= 1.0 + tolerance;
    const bool tracks_baseline =
        baseline_inc_ratio > 0 && fresh_ratio > 0 &&
        fresh_ratio / baseline_inc_ratio <= 1.0 + tolerance;
    if (!proportional && !tracks_baseline) {
      if (full.seconds < kPhaseSlackSeconds) {
        std::printf("  PASS: cascade wall %.1fms below %.0fms noise floor\n",
                    full.seconds * 1e3, kPhaseSlackSeconds * 1e3);
      } else {
        std::printf("FAIL: per-leaf incremental cost grew superlinearly in "
                    "|delta| (ratio %.3f, baseline %.3f)\n",
                    fresh_ratio, baseline_inc_ratio);
        return 1;
      }
    }
  } else {
    std::printf("delta scaling: no baseline; skipping (PASS)\n");
  }

  // Columnar gates. Index build on TPC-H SF 1 is a wall-clock check (same
  // slack floor + sequential-wall host normalization as the phase checks).
  // The interning arena footprint is deterministic for the fixed generator
  // seed, so growth over tolerance is a real change — a dedup slip, arena
  // bloat, or a generator regression — and gets no noise normalization.
  if (baseline_index_build > 0 || baseline_arena_bytes > 0 ||
      baseline_profiled > 0) {
    ColumnarFresh columnar = MeasureColumnarFresh();
    if (!check_phase("columnar index build (tpch SF1)",
                     columnar.index_build_seconds, baseline_index_build)) {
      return 1;
    }
    if (baseline_arena_bytes > 0) {
      const double mem_ratio = columnar.arena_bytes / baseline_arena_bytes;
      std::printf("intern arena bytes: fresh=%.0f baseline=%.0f "
                  "ratio=%.3f\n",
                  columnar.arena_bytes, baseline_arena_bytes, mem_ratio);
      if (mem_ratio > 1.0 + tolerance) {
        std::printf("FAIL: interning arena footprint regressed %.1f%% over "
                    "baseline\n",
                    (mem_ratio - 1.0) * 100);
        return 1;
      }
    } else {
      std::printf("intern arena bytes: no baseline; skipping (PASS)\n");
    }
    if (baseline_profiled > 0) {
      const double ratio = columnar.profiled_strings / baseline_profiled;
      std::printf("profiled strings: fresh=%.0f baseline=%.0f ratio=%.3f\n",
                  columnar.profiled_strings, baseline_profiled, ratio);
      if (ratio > 1.0 + tolerance) {
        std::printf("FAIL: profile coverage regressed %.1f%% over baseline\n",
                    (ratio - 1.0) * 100);
        return 1;
      }
    } else {
      std::printf("profiled strings: no baseline; skipping (PASS)\n");
    }
  } else {
    std::printf("columnar: no baseline; skipping (PASS)\n");
  }

  // Batch-kernel gates: the one-vs-many similarity path against the values
  // micro_core recorded as token_jaccard_batch_ns / ml_probe_batch_ns.
  // Per-pair costs are hundreds of nanoseconds, so the noise floor is
  // ns-scale; beyond that the gates reuse the sequential-wall host
  // normalization. The batch ≡ pairwise bit-identity is unconditional once
  // the kernels run. Baselines recorded before the vectorized engine
  // existed skip the gate.
  if (baseline_tj_batch > 0 || baseline_probe_batch > 0) {
    BatchFresh batch = MeasureBatchFresh();
    if (!batch.scores_equal) {
      std::printf("FAIL: batch kernels diverged from pairwise scalar "
                  "kernels\n");
      return 1;
    }
    constexpr double kKernelSlackNs = 50.0;  // timer + cache jitter per pair
    auto check_kernel = [&](const char* name, double fresh, double base) {
      if (base <= 0 || fresh <= 0) {
        std::printf("%s: no baseline; skipping (PASS)\n", name);
        return true;
      }
      const double r = fresh / base;
      std::printf("%s: fresh=%.1fns baseline=%.1fns ratio=%.3f\n", name,
                  fresh, base, r);
      if (r <= 1.0 + tolerance) return true;
      if (fresh - base < kKernelSlackNs) {
        std::printf("  PASS: delta %.1fns below %.0fns noise floor\n",
                    fresh - base, kKernelSlackNs);
        return true;
      }
      if (baseline_seq > 0 && seq_best > 0) {
        const double host_factor = seq_best / baseline_seq;
        const double norm_ratio = host_factor > 0 ? r / host_factor : 0;
        std::printf("  normalized by seq wall: host_factor=%.3f ratio=%.3f\n",
                    host_factor, norm_ratio);
        if (norm_ratio > 0 && norm_ratio <= 1.0 + tolerance) {
          std::printf("  PASS: slowdown tracks the sequential path "
                      "(host noise)\n");
          return true;
        }
      }
      std::printf("FAIL: %s regressed %.1f%% over baseline\n", name,
                  (r - 1.0) * 100);
      return false;
    };
    if (!check_kernel("token jaccard batch", batch.token_jaccard_batch_ns,
                      baseline_tj_batch)) {
      return 1;
    }
    if (!check_kernel("ml probe batch", batch.ml_probe_batch_ns,
                      baseline_probe_batch)) {
      return 1;
    }
  } else {
    std::printf("batch kernels: no baseline; skipping (PASS)\n");
  }

  // Service gates: served-query p99 and update-visibility lag from a fresh
  // dcerd run over loopback TCP, against the values micro_core recorded.
  // Both are wall-clock numbers on a live socket, so each gets its own
  // scale-appropriate noise floor (query RTTs are tens of µs, lag includes
  // a per-batch fixpoint) and the same sequential-wall host normalization
  // as the phase checks. Baselines recorded before dcerd existed skip the
  // gate.
  if (baseline_query_p99 > 0 || baseline_lag > 0) {
    ServiceFresh svc = MeasureServiceFresh();
    if (!svc.ok) {
      std::printf("FAIL: dcerd service run did not complete\n");
      return 1;
    }
    constexpr double kQuerySlackSeconds = 0.002;  // scheduler jitter on RTTs
    auto check_service = [&](const char* name, double fresh, double base,
                             double slack) {
      if (base <= 0 || fresh <= 0) {
        std::printf("%s: no baseline; skipping (PASS)\n", name);
        return true;
      }
      const double r = fresh / base;
      std::printf("%s: fresh=%.6fs baseline=%.6fs ratio=%.3f\n", name, fresh,
                  base, r);
      if (r <= 1.0 + tolerance) return true;
      if (fresh - base < slack) {
        std::printf("  PASS: delta %.3fms below %.1fms noise floor\n",
                    (fresh - base) * 1e3, slack * 1e3);
        return true;
      }
      if (baseline_seq > 0 && seq_best > 0) {
        const double host_factor = seq_best / baseline_seq;
        const double norm_ratio = host_factor > 0 ? r / host_factor : 0;
        std::printf("  normalized by seq wall: host_factor=%.3f ratio=%.3f\n",
                    host_factor, norm_ratio);
        if (norm_ratio > 0 && norm_ratio <= 1.0 + tolerance) {
          std::printf("  PASS: slowdown tracks the sequential path "
                      "(host noise)\n");
          return true;
        }
      }
      std::printf("FAIL: %s regressed %.1f%% over baseline\n", name,
                  (r - 1.0) * 100);
      return false;
    };
    if (!check_service("served query p99", svc.p99_seconds,
                       baseline_query_p99, kQuerySlackSeconds)) {
      return 1;
    }
    if (!check_service("update visibility lag", svc.mean_lag_seconds,
                       baseline_lag, kPhaseSlackSeconds)) {
      return 1;
    }
  } else {
    std::printf("service: no baseline; skipping (PASS)\n");
  }

  // Telemetry-plane structural gate: deterministic, so it runs even when the
  // baseline predates the exposition endpoints.
  if (!ExpositionSmoke()) return 1;
  std::printf("PASS\n");
  return 0;
}

}  // namespace
}  // namespace dcer

int main(int argc, char** argv) { return dcer::Run(argc, argv); }
