#ifndef SKETCHML_DIST_TRACE_ANALYSIS_H_
#define SKETCHML_DIST_TRACE_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sketchml::dist {

/// Causal-trace analysis for `*.trace.json` files written by
/// obs::TraceLog::WriteChromeTrace. The trainer records each batch as one
/// causal tree (epoch → batch → per-worker push → compute / codec /
/// modeled transfer attempts, plus driver-side aggregate / update /
/// broadcast); this module reconstructs those trees, walks the per-epoch
/// critical path, and attributes wall time to phases — the Fig-11-style
/// breakdown the paper uses to argue compression moves the bottleneck
/// from network to compute. See docs/observability.md ("Causal tracing").

/// One "X" (complete) event parsed back from the Chrome trace.
struct TraceSpanRecord {
  std::string category;
  std::string name;
  uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::vector<std::pair<std::string, double>> args;

  double end_us() const { return ts_us + dur_us; }
  double ArgOr(std::string_view key, double default_value) const;
};

/// A fully parsed trace file.
struct ParsedTrace {
  std::vector<TraceSpanRecord> spans;  // "X" events, file order.
  uint64_t dropped_events = 0;         // Footer count (ring wraparound).
};

common::Result<ParsedTrace> ParseChromeTrace(std::string_view json_text);
common::Result<ParsedTrace> LoadChromeTrace(const std::string& path);

/// Wall-clock phase attribution. The critical-path walk partitions each
/// epoch span's duration exactly across these buckets (self-time of
/// structural spans — epoch, batch, push, broadcast — lands in `other`),
/// so their sum equals the summed epoch durations by construction.
struct PhaseAttribution {
  double compute_us = 0.0;    // ("trainer", "compute")
  double encode_us = 0.0;     // ("codec", "encode/*")
  double decode_us = 0.0;     // ("codec", "decode/*")
  double aggregate_us = 0.0;  // ("trainer", "aggregate")
  double update_us = 0.0;     // ("trainer", "update")
  double other_us = 0.0;      // Structural self-time, loss eval, misc.

  double TotalUs() const {
    return compute_us + encode_us + decode_us + aggregate_us + update_us +
           other_us;
  }
};

/// Modeled (simulated-link) time, reported beside the wall attribution:
/// these spans carry NetworkModel durations, not host wall time, so they
/// are excluded from the critical-path walk.
struct ModeledNetwork {
  double gather_us = 0.0;     // ("network", "gather"), max across links.
  double broadcast_us = 0.0;  // ("network", "broadcast").
  double retry_us = 0.0;      // ("network", "retry"): backoff + resends.
};

/// How often each worker's push chain bounded a batch (its push span was
/// the batch's latest-ending child — the straggler of that batch).
struct StragglerRow {
  int worker = -1;
  uint64_t batches_bounded = 0;
};

/// Everything `sketchml_report --trace` reports. Split into *structural*
/// facts — deterministic for a fixed seed at any thread count, diffed
/// exactly by the golden gate — and *timing* facts, which depend on host
/// wall clock and are ignored by the diff.
struct CriticalPathReport {
  // -- Structural ----------------------------------------------------
  uint64_t epochs = 0;          // ("trainer", "epoch") roots.
  uint64_t batches = 0;         // ("trainer", "batch") under an epoch.
  uint64_t pushes = 0;          // ("trainer", "push") spans.
  uint64_t transfers = 0;       // ("network", "transfer") attempts.
  uint64_t retry_attempts = 0;  // Transfers with attempt >= 1.
  uint64_t retry_spans = 0;     // ("network", "retry") batch summaries.
  uint64_t orphan_spans = 0;    // parent_span_id references a missing span.
  uint64_t multi_root_traces = 0;  // trace_ids with more than one root.
  uint64_t bytes_up = 0;            // Σ gather span "bytes".
  uint64_t bytes_down = 0;          // Σ broadcast span "bytes".
  uint64_t first_attempt_bytes = 0;  // Σ transfer bytes, attempt == 0.
  uint64_t retransmit_bytes = 0;     // Σ transfer bytes, attempt >= 1.
  // Span counts per category, sorted by category name.
  std::vector<std::pair<std::string, uint64_t>> spans_by_category;

  // -- Timing --------------------------------------------------------
  double epoch_total_us = 0.0;  // Σ epoch span durations.
  PhaseAttribution attribution;
  ModeledNetwork modeled;
  std::vector<StragglerRow> stragglers;  // Descending batches_bounded.

  uint64_t dropped_events = 0;

  /// Retransmitted / first-attempt bytes (0 when no retries): how much
  /// extra traffic the fault layer's retries injected.
  double RetryAmplification() const {
    return first_attempt_bytes == 0
               ? 0.0
               : static_cast<double>(retransmit_bytes) /
                     static_cast<double>(first_attempt_bytes);
  }
};

/// Reconstructs the causal trees and builds the report. Fails on a trace
/// with no epoch span (nothing to attribute). A trace with dropped
/// events still analyzes — the caller decides whether that is fatal (the
/// CLI refuses unless --allow-dropped).
common::Result<CriticalPathReport> AnalyzeTrace(const ParsedTrace& trace);

/// Human-readable rendering (the Fig-11-style table the CLI prints).
std::string RenderCriticalPathReport(const CriticalPathReport& report);

/// JSON rendering with separate "structural" / "timing" sections, for
/// golden snapshots and A/B diffing.
std::string CriticalPathReportToJson(const CriticalPathReport& report);

/// Compares the "structural" sections of two report JSON documents
/// (golden vs candidate) field-by-field, exactly; "timing" is ignored.
/// Returns the human-readable mismatch list (empty = structurally
/// identical).
common::Result<std::vector<std::string>> DiffStructuralJson(
    std::string_view golden_json, std::string_view candidate_json);

}  // namespace sketchml::dist

#endif  // SKETCHML_DIST_TRACE_ANALYSIS_H_
