#ifndef DCER_E2EBENCH_PIPELINE_H_
#define DCER_E2EBENCH_PIPELINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chase/match.h"
#include "obs/metrics.h"
#include "parallel/dmatch.h"
#include "spans.h"

namespace e2ebench {

/// One workload: which generator makes the data, how big it is, and how much
/// of it is held back and streamed through dcerd. Both workloads run the
/// same pipeline (see RunRepetition); what differs is where the time goes.
struct WorkloadSpec {
  const char* name;
  bool tpch;              // TPCH-lite; otherwise ecommerce-lite
  double tpch_scale;      // TpchOptions::scale
  size_t customers;       // EcommerceOptions::num_customers
  double hold_back;       // share of every relation streamed as APPENDs
  bool peak_rss_after_stream;  // gate peak RSS before the batch resolves
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Per-layer figures measured by calling single layers on their own, once
/// per traced run, over the grown dataset of a repetition.
struct ProbeResult {
  double hypart_s = 0;
  double worker_setup_max_s = 0;
  double engine_setup_s = 0;
  double fixpoint_s = 0;
  double profile_sync_s = 0;
  double publish_ms = 0;
  double append_codec_us = 0;
  double append_inprocess_ms = 0;  // Resolver::Append p50, no daemon/socket
  double append_seeded_joins = 0;  // mean per append
  double append_inc_rounds = 0;    // mean per append
  uint64_t intern_arena_bytes = 0;
};

/// Everything one repetition measured and checked.
struct RepResult {
  std::vector<std::string> errors;  // failed checks; empty = correct

  uint64_t attempted = 0;  // resolves + appends + queries
  uint64_t failed = 0;
  uint64_t appends = 0;
  uint64_t queries = 0;
  uint64_t streamed_tuples = 0;
  uint64_t tuples = 0;  // |D| after the stream

  double pipeline_s = 0;  // wall of the whole repetition
  double generate_s = 0;
  double setup_s = 0;
  double stream_s = 0;
  double stream_peak_rss_mb = 0;  // process high-water mark after the stream
  double resolve_s = 0;
  double resolve_seq_s = 0;
  double cpu_resolve_s = 0;
  double cpu_resolve_seq_s = 0;
  std::vector<double> append_ms;
  std::vector<double> query_us;

  double f1 = 0;
  double precision = 0;
  double recall = 0;
  uint64_t gamma_hash = 0;

  // Reports the program exports, read after the timed calls.
  dcer::DMatchReport dmatch;
  dcer::ChaseStats seq_chase;
  uint64_t seq_predictions = 0;
  uint64_t seq_cache_hits = 0;
  dcer::obs::MetricsSnapshot stream_registry;  // registry delta over the stream
};

/// Runs one repetition of `spec` on the inputs made from `seed`:
///
///   setup   generate, hold back a seeded sample of every relation, open
///           the rest with the sequential chase inside dcerd, connect a
///           writer and a reader client;
///   stream  the writer APPENDs the held-back tuples in seeded order in
///           8-tuple requests (closed loop) while the reader sends
///           RESOLVE/SAME (closed loop) until the stream ends;
///   batch   rebuild the grown dataset from the acked gids and resolve it
///           from scratch through Resolver::OpenBorrowed, with 4 workers
///           and sequentially, each with the registry's prediction cache
///           and classifier memos cleared;
///   checks  4-worker Γ == sequential Γ == served Γ, mid-stream answers
///           still hold, versions monotone, F1 from the generator's ids.
///
/// With `log` enabled every phase and every layer call is recorded as a
/// span (reader calls go to `reader_log`). A non-null `probe` additionally
/// times single layers over the grown dataset after the checks.
RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, SpanLog* log,
                        SpanLog* reader_log, ProbeResult* probe);

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// User plus system CPU seconds of this process so far.
double CpuSeconds();

/// Peak resident set of this process in MB.
double PeakRssMb();

}  // namespace e2ebench

#endif  // DCER_E2EBENCH_PIPELINE_H_
