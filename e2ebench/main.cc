// End-to-end benchmark driver. Runs whole repetitions of one workload for
// --seconds, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics and a per-layer time table) with a
// final JSON line:
//
//   e2e_bench --workload tpch_batch --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads and the metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline.h"

namespace e2ebench {
namespace {

// A run's p99 needs ten samples beyond it.
constexpr uint64_t kMinAppends = 1000;
constexpr size_t kMinRepetitions = 3;
// A run must end within 180 s; no repetition starts past this point.
constexpr double kStartDeadline = 120;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

template <typename F>
double MedianOf(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return Median(v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or source, printed on the human line
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

void Account(const std::vector<RepResult>& reps, Outcome* out) {
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    out->attempted += r.attempted;
    out->failed += r.failed;
    for (const std::string& e : r.errors) {
      out->errors.push_back("repetition " + std::to_string(i) + ": " + e);
    }
    // Every repetition resolves the same inputs, so Γ must repeat exactly.
    if (r.errors.empty() && reps[0].errors.empty() &&
        r.gamma_hash != reps[0].gamma_hash) {
      out->errors.push_back("repetition " + std::to_string(i) +
                            ": Γ differs from repetition 0 on the same seed");
    }
  }
}

// Medians of latency are taken per repetition and reported as their median
// over the run's repetitions, so one repetition caught in a burst of host
// noise does not move the run's figure. The p99 tails need at least
// kMinAppends samples, so they are taken over the run's pooled samples.
std::string SampleNote(const std::vector<RepResult>& reps, bool appends) {
  uint64_t n = 0;
  for (const RepResult& r : reps) n += appends ? r.appends : r.queries;
  return "over " + std::to_string(reps.size()) + " repetitions, " +
         std::to_string(n) + (appends ? " APPENDs" : " queries");
}

std::vector<double> Pooled(const std::vector<RepResult>& reps, bool appends) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    const std::vector<double>& s = appends ? r.append_ms : r.query_us;
    v.insert(v.end(), s.begin(), s.end());
  }
  return v;
}

// maxrss only grows. The first repetition's reading after its stream is the
// high-water mark of setup and stream alone; the end-of-run reading adds the
// batch resolves, which dominate it on both workloads.
Metric PeakRss(const WorkloadSpec& spec, const std::vector<RepResult>& reps) {
  if (spec.peak_rss_after_stream) {
    return {"peak_rss_mb", reps[0].stream_peak_rss_mb, "MB",
            "high-water mark after the first stream, before any batch resolve"};
  }
  return {"peak_rss_mb", PeakRssMb(), "MB", "high-water mark of the process"};
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec,
                             const std::vector<RepResult>& reps) {
  const std::string n = "median of " + std::to_string(reps.size()) +
                        " repetitions";
  return {
      {"setup_s", MedianOf(reps, [](auto& r) { return r.setup_s; }), "s", n},
      {"resolve_s", MedianOf(reps, [](auto& r) { return r.resolve_s; }), "s",
       n},
      {"resolve_seq_s",
       MedianOf(reps, [](auto& r) { return r.resolve_seq_s; }), "s", n},
      {"f1", reps[0].f1, "ratio",
       "precision " + std::to_string(reps[0].precision) + ", recall " +
           std::to_string(reps[0].recall)},
      PeakRss(spec, reps),
      {"append_p50_ms",
       MedianOf(reps, [](auto& r) { return Percentile(r.append_ms, 0.5); }),
       "ms", SampleNote(reps, true)},
      {"query_p50_us",
       MedianOf(reps, [](auto& r) { return Percentile(r.query_us, 0.5); }),
       "us", SampleNote(reps, false)},
  };
}

// The p99 tails and the stream's throughput (which the slowest APPENDs
// drive) swing by 20-45% between runs on a host whose speed drifts (README,
// "Steadiness"), up to and past the largest bound allowed, so they are
// reported beside the end-to-end metrics rather than gated.
std::vector<Metric> Tails(const std::vector<RepResult>& reps) {
  return {
      {"append_tuples_per_s",
       MedianOf(reps,
                [](auto& r) { return r.streamed_tuples / r.stream_s; }),
       "tuples/s",
       "median of " + std::to_string(reps.size()) + " repetitions"},
      {"append_p99_ms", Percentile(Pooled(reps, true), 0.99), "ms",
       SampleNote(reps, true)},
      {"query_p99_us", Percentile(Pooled(reps, false), 0.99), "us",
       SampleNote(reps, false)},
  };
}

double HistQuantile(const RepResult& r, const char* name, double q) {
  auto it = r.stream_registry.histograms.find(name);
  return it == r.stream_registry.histograms.end() ? 0 : it->second.Quantile(q);
}

// ---- traced mode -----------------------------------------------------------

struct LayerTable {
  double wall = 0;  // Σ repetition spans
  std::map<std::string, double> layer_self;                 // by layer
  std::map<std::pair<std::string, std::string>, double> span_self;  // (layer, name)
};

// Self time of every span under the "repetition" spans: its duration minus
// what its child spans cover.
LayerTable BuildTable(const std::vector<Span>& spans) {
  LayerTable t;
  std::vector<double> child(spans.size(), 0);
  std::vector<char> in_rep(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      child[s.parent] += s.end - s.start;
      in_rep[i] = in_rep[s.parent];
    } else if (s.name == "repetition") {
      in_rep[i] = 1;
      t.wall += s.end - s.start;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!in_rep[i]) continue;
    const Span& s = spans[i];
    const double self = s.end - s.start - child[i];
    t.layer_self[s.layer] += self;
    t.span_self[{s.layer, s.name}] += self;
  }
  return t;
}

bool IsProgramLayer(const std::string& layer) {
  return layer != "bench" && layer != "unattributed";
}

// The program's DCER_TRACE spans, read back from its Chrome trace JSON:
// count and total milliseconds per span name.
std::map<std::string, std::pair<uint64_t, double>> ProgramSpans(
    const std::string& json) {
  std::map<std::string, std::pair<uint64_t, double>> out;
  size_t pos = 0;
  while ((pos = json.find("\"name\":\"", pos)) != std::string::npos) {
    pos += 8;
    const size_t end = json.find('"', pos);
    const size_t dur = json.find("\"dur\":", end);
    if (end == std::string::npos || dur == std::string::npos) break;
    auto& slot = out[json.substr(pos, end - pos)];
    ++slot.first;
    slot.second += std::strtod(json.c_str() + dur + 6, nullptr) / 1e3;
    pos = dur;
  }
  return out;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      double program_anchor, const std::string& program_json) {
  dcer::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      w.BeginObject();
      w.KV("name", s.name);
      w.KV("cat", s.layer);
      w.KV("ph", "X");
      w.KV("ts", (s.start - program_anchor) * 1e6);
      w.KV("dur", (s.end - s.start) * 1e6);
      w.KV("pid", 0);
      w.KV("tid", s.tid);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  // Splice the program's own events into the same array.
  std::string ours = w.str();
  const size_t theirs_begin = program_json.find('[');
  const size_t theirs_end = program_json.rfind(']');
  const size_t ours_end = ours.rfind(']');
  if (theirs_begin != std::string::npos && theirs_end > theirs_begin + 1 &&
      ours_end != std::string::npos) {
    std::string events =
        program_json.substr(theirs_begin + 1, theirs_end - theirs_begin - 1);
    ours.insert(ours_end, (ours[ours_end - 1] == '[' ? "" : ",") + events);
  }
  if (FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(ours.data(), 1, ours.size(), f);
    std::fclose(f);
  }
}

std::vector<Metric> PerLayer(const std::vector<RepResult>& traced,
                             const std::vector<RepResult>& untraced,
                             const ProbeResult& p, const LayerTable& table) {
  const RepResult& r = traced[0];  // counts are deterministic per seed
  const dcer::DMatchReport& d = r.dmatch;
  const dcer::SuperstepStats step0 =
      d.superstep_stats.empty() ? dcer::SuperstepStats{} : d.superstep_stats[0];
  double layer_time = 0;
  for (const auto& [layer, s] : table.layer_self) {
    if (IsProgramLayer(layer)) layer_time += s;
  }
  const double lookups =
      static_cast<double>(r.seq_predictions + r.seq_cache_hits);
  auto med = [&](auto f) { return MedianOf(traced, f); };
  const std::vector<Metric> tails = Tails(untraced);
  return {
      {"relational.generate_s", med([](auto& x) { return x.generate_s; }), "s",
       ""},
      {"relational.intern_arena_bytes",
       static_cast<double>(p.intern_arena_bytes), "bytes", ""},
      {"partition.hypart_s", p.hypart_s, "s", "HyPart alone"},
      {"partition.replication_factor", d.partition.replication_factor,
       "ratio", ""},
      {"partition.fragment_tuples",
       static_cast<double>(d.partition.fragment_tuples), "count", ""},
      {"partition.skew", d.partition.skew, "ratio", ""},
      {"partition.hash_computations",
       static_cast<double>(d.partition.hash_computations), "count", ""},
      {"parallel.worker_setup_max_s", p.worker_setup_max_s, "s",
       "max over workers"},
      {"parallel.er_s", med([](auto& x) { return x.dmatch.er_seconds; }), "s",
       ""},
      {"parallel.superstep0_max_s", step0.max_seconds, "s", ""},
      {"parallel.superstep0_skew", step0.skew, "ratio", ""},
      {"parallel.supersteps", static_cast<double>(d.supersteps), "count", ""},
      {"parallel.route_s", med([](auto& x) { return x.dmatch.route_seconds; }),
       "s", ""},
      {"parallel.messages", static_cast<double>(d.messages + d.outbox_messages),
       "count", "both legs"},
      {"parallel.wire_bytes", static_cast<double>(d.bytes + d.outbox_bytes),
       "bytes", "both legs"},
      {"parallel.teardown_s", med([](auto& x) {
         return x.resolve_s - x.dmatch.partition_seconds - x.dmatch.er_seconds;
       }),
       "s", "4-worker resolve wall - partition - BSP"},
      {"parallel.work_amplification", med([](auto& x) {
         return x.cpu_resolve_s / x.cpu_resolve_seq_s;
       }),
       "ratio", "CPU s, 4 workers / sequential"},
      {"chase.engine_setup_s", p.engine_setup_s, "s", "full view"},
      {"chase.fixpoint_s", p.fixpoint_s, "s", "Deduce + IncDeduce"},
      {"chase.valuations", static_cast<double>(r.seq_chase.valuations),
       "count", "sequential resolve"},
      {"chase.join_candidates", static_cast<double>(r.seq_chase.join_candidates),
       "count", "sequential resolve"},
      {"chase.deps_added", static_cast<double>(r.seq_chase.deps_added), "count",
       "sequential resolve"},
      {"chase.deps_dropped", static_cast<double>(r.seq_chase.deps_dropped),
       "count", "sequential resolve, H at capacity"},
      {"chase.append_seeded_joins", p.append_seeded_joins, "count",
       "mean per APPEND, in-process replay"},
      {"chase.append_inc_rounds", p.append_inc_rounds, "count",
       "mean per APPEND, in-process replay"},
      {"ml.profile_sync_s", p.profile_sync_s, "s", "ProfileStore::Sync alone"},
      {"ml.predictions", static_cast<double>(r.seq_predictions), "count",
       "sequential resolve"},
      {"ml.cache_hit_ratio", lookups == 0 ? 0 : r.seq_cache_hits / lookups,
       "ratio", "sequential resolve"},
      {"ml.probe_selectivity",
       r.seq_chase.ml_probes == 0
           ? 0
           : static_cast<double>(r.seq_chase.ml_probe_candidates) /
                 r.seq_chase.ml_probes,
       "ratio", "candidates per probe"},
      {"service.publish_ms", p.publish_ms, "ms", "MakeSnapshot, grown Γ"},
      {"service.append_exec_ms",
       med([](auto& x) { return HistQuantile(x, "dcerd.exec", 0.5); }) / 1e6,
       "ms", "dcerd.exec p50"},
      {"service.append_queue_wait_ms",
       med([](auto& x) { return HistQuantile(x, "dcerd.queue_wait", 0.99); }) /
           1e6,
       "ms", "dcerd.queue_wait p99"},
      {"service.query_server_us",
       med([](auto& x) { return HistQuantile(x, "dcerd.query", 0.5); }) / 1e3,
       "us", "dcerd.query p50"},
      {"service.append_codec_us", p.append_codec_us, "us",
       "encode + decode of one APPEND"},
      tails[0],
      tails[1],
      tails[2],
      {"layer_coverage", table.wall == 0 ? 0 : layer_time / table.wall,
       "ratio", "named layer self time / repetition wall"},
      {"unattributed_s",
       (table.wall - layer_time) / std::max<size_t>(1, traced.size()), "s",
       "per repetition"},
      {"obs.trace_overhead",
       med([](auto& x) { return x.pipeline_s; }) /
           MedianOf(untraced, [](auto& x) { return x.pipeline_s; }),
       "ratio", "traced / untraced repetition wall"},
  };
}

void PrintTable(const LayerTable& t, size_t reps, const ProbeResult& p,
                const std::map<std::string, std::pair<uint64_t, double>>& prog,
                const SpanLog& reader) {
  const double n = static_cast<double>(std::max<size_t>(1, reps));
  std::printf("\nper-layer self time, mean per traced repetition "
              "(wall %.3f s)\n", t.wall / n);
  std::printf("  %-34s %10s %7s\n", "layer / span", "self s", "share");
  double attributed = 0;
  for (const auto& [layer, self] : t.layer_self) {
    if (!IsProgramLayer(layer)) continue;
    attributed += self;
    std::printf("  %-34s %10.4f %6.1f%%\n", layer.c_str(), self / n,
                100 * self / t.wall);
    for (const auto& [key, s] : t.span_self) {
      if (key.first != layer) continue;
      std::printf("    %-32s %10.4f %6.1f%%\n", key.second.c_str(), s / n,
                  100 * s / t.wall);
    }
  }
  std::printf("  %-34s %10.4f %6.1f%%\n", "unattributed", (t.wall - attributed) / n,
              100 * (t.wall - attributed) / t.wall);
  for (const auto& [key, s] : t.span_self) {
    if (IsProgramLayer(key.first)) continue;
    std::printf("    %-32s %10.4f %6.1f%%\n",
                (key.second + (key.first == "bench" ? " (bench)" : "")).c_str(),
                s / n, 100 * s / t.wall);
  }
  std::printf("  layer_coverage %.3f\n", attributed / t.wall);
  double reader_s = 0;
  for (const Span& s : reader.spans()) reader_s += s.end - s.start;
  std::printf("  reader connection: %zu queries, %.3f s in round trips "
              "(concurrent with the stream)\n",
              reader.spans().size(), reader_s);
  std::printf("\nlayers timed alone over the grown dataset\n");
  std::printf("  %-34s %10.4f s\n", "partition: HyPart", p.hypart_s);
  std::printf("  %-34s %10.4f s\n", "parallel: worker engine setup max",
              p.worker_setup_max_s);
  std::printf("  %-34s %10.4f s\n", "chase: full-view engine setup",
              p.engine_setup_s);
  std::printf("  %-34s %10.4f s\n", "chase: Deduce + IncDeduce", p.fixpoint_s);
  std::printf("  %-34s %10.4f s\n", "ml: ProfileStore::Sync", p.profile_sync_s);
  std::printf("  %-34s %10.4f ms\n", "service: MakeSnapshot", p.publish_ms);
  std::printf("  %-34s %10.4f us\n", "service: APPEND encode+decode",
              p.append_codec_us);
  std::printf("  %-34s %10.4f ms\n", "chase: Resolver::Append p50",
              p.append_inprocess_ms);
  std::printf("\nprogram spans (DCER_TRACE), all traced repetitions\n");
  for (const auto& [name, cd] : prog) {
    std::printf("  %-34s %8llu %12.3f ms\n", name.c_str(),
                static_cast<unsigned long long>(cd.first), cd.second);
  }
}

void PrintResult(bool correct, const Outcome& o,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("attempted %llu operations (resolves, APPENDs, queries), "
              "failed %llu\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (const std::string& e : o.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  dcer::JsonWriter w;
  w.BeginObject();
  w.KV("correct", correct);
  w.KV("attempted", o.attempted);
  w.KV("failed", o.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject().KV("value", m.value).KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int Run(const Args& args, const WorkloadSpec& spec) {
  // The first Resolver open would otherwise read DCER_METRICS and
  // DCER_TRACE_FILE and switch metrics or tracing back on for the untraced
  // repetitions; use up its one-time read before switching both off.
  dcer::obs::InitFromEnv();
  dcer::obs::SetMetricsEnabled(false);
  dcer::obs::SetTraceEnabled(false);
  const double start = NowSeconds();
  SpanLog off(false, 0), off_reader(false, 1);
  std::vector<RepResult> reps;
  Outcome outcome;

  if (!args.trace) {
    uint64_t appends = 0;
    while (reps.empty() ||
           (NowSeconds() - start < kStartDeadline &&
            (NowSeconds() - start < args.seconds || appends < kMinAppends ||
             reps.size() < kMinRepetitions))) {
      reps.push_back(RunRepetition(spec, args.seed, &off, &off_reader, nullptr));
      const RepResult& r = reps.back();
      std::printf("repetition %zu: setup %.3f s, stream %.3f s (%llu APPENDs, "
                  "%llu queries), resolve %.3f s, resolve_seq %.3f s\n",
                  reps.size() - 1, r.setup_s, r.stream_s,
                  static_cast<unsigned long long>(r.appends),
                  static_cast<unsigned long long>(r.queries), r.resolve_s,
                  r.resolve_seq_s);
      appends += r.appends;
      if (!reps.back().errors.empty()) break;
    }
    Account(reps, &outcome);
    const bool correct = outcome.errors.empty();
    std::printf("corpus after the stream: %llu tuples, %llu streamed per "
                "repetition\n",
                static_cast<unsigned long long>(reps[0].tuples),
                static_cast<unsigned long long>(reps[0].streamed_tuples));
    std::printf("peak RSS after the first stream %.1f MB, at the end %.1f MB\n",
                reps[0].stream_peak_rss_mb, PeakRssMb());
    for (const Metric& m : Tails(reps)) {
      std::printf("%-30s %14.6f %-8s %s (not gated)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.note.c_str());
    }
    PrintResult(correct, outcome, EndToEnd(spec, reps));
    return correct ? 0 : 1;
  }

  // Traced: alternate untraced and traced repetitions, so the overhead ratio
  // compares neighbours; layers are timed alone after the first traced one.
  SpanLog log(true, 0), reader_log(true, 1);
  std::vector<RepResult> untraced;
  ProbeResult probe;
  double program_anchor = 0;
  uint64_t untraced_appends = 0;
  do {
    untraced.push_back(RunRepetition(spec, args.seed, &off, &off_reader, nullptr));
    untraced_appends += untraced.back().appends;
    if (!untraced.back().errors.empty()) break;
    if (reps.empty()) program_anchor = NowSeconds();
    dcer::obs::SetMetricsEnabled(true);
    dcer::obs::SetTraceEnabled(true);
    reps.push_back(RunRepetition(spec, args.seed, &log, &reader_log,
                                 reps.empty() ? &probe : nullptr));
    dcer::obs::SetTraceEnabled(false);
    dcer::obs::SetMetricsEnabled(false);
    if (!reps.back().errors.empty()) break;
  } while (NowSeconds() - start < kStartDeadline &&
           (NowSeconds() - start < args.seconds ||
            untraced_appends < kMinAppends));

  std::vector<RepResult> all = untraced;
  all.insert(all.end(), reps.begin(), reps.end());
  Account(all, &outcome);
  const bool correct = outcome.errors.empty() && !reps.empty();
  if (!correct) {
    PrintResult(false, outcome, {});
    return 1;
  }
  const std::string program_json = dcer::obs::ChromeTraceJson();
  const LayerTable table = BuildTable(log.spans());
  PrintTable(table, reps.size(), probe, ProgramSpans(program_json), reader_log);
  if (!args.trace_out.empty()) {
    WriteChromeTrace(args.trace_out, {&log, &reader_log}, program_anchor,
                     program_json);
    std::printf("chrome trace written to %s\n", args.trace_out.c_str());
  }
  std::printf("\n");
  PrintResult(true, outcome, PerLayer(reps, untraced, probe, table));
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  const e2ebench::WorkloadSpec* spec = e2ebench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return e2ebench::Run(args, *spec);
}
