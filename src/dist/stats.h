#ifndef SKETCHML_DIST_STATS_H_
#define SKETCHML_DIST_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace sketchml::dist {

/// Per-epoch accounting produced by the distributed trainer.
///
/// CPU phases (compute/encode/decode/update) are *measured* wall time on
/// real data; network time is *modeled* from exact serialized byte counts
/// (see NetworkModel). Keeping them separate lets benches report both the
/// paper's wall-clock figures and raw message sizes.
struct EpochStats {
  int epoch = 0;

  // Measured CPU seconds (parallel phases already divided by workers).
  double compute_seconds = 0.0;  // Gradient computation on workers.
  double encode_seconds = 0.0;   // Worker-side compression.
  double decode_seconds = 0.0;   // Driver-side decompression (serial).
  double update_seconds = 0.0;   // Aggregation + optimizer step.

  // Modeled network seconds through the driver's link.
  double network_seconds = 0.0;

  // Exact serialized traffic.
  uint64_t bytes_up = 0;    // Workers -> driver (gradients).
  uint64_t bytes_down = 0;  // Driver -> workers (model update).
  uint64_t messages = 0;    // Total gradient messages this epoch.

  // Fault-tolerance accounting (all zero when the FaultPlan is inactive,
  // so fault-free stats stay bit-identical to a build without faults).
  // Drops + corruptions + stragglers + crashes + stalls.
  uint64_t injected_faults = 0;
  uint64_t retries = 0;            // Retransmit attempts beyond the first.
  uint64_t retransmit_bytes = 0;   // Bytes re-sent by those retries.
  uint64_t lost_messages = 0;      // Undelivered after the retry budget.
  uint64_t degraded_batches = 0;   // Batches applied with < W gradients.

  // Elastic-membership accounting (all zero when the MembershipPlan is
  // inactive and checkpoints are off, so a churn-free run's stats stay
  // bit-identical to a build without the membership layer).
  uint64_t joins = 0;             // Workers that joined this epoch.
  uint64_t leaves = 0;            // Graceful leaves (may rejoin later).
  uint64_t departs = 0;           // Permanent departures.
  uint64_t handoff_bytes = 0;     // State handed off (codec lanes, shards).
  uint64_t sync_bytes = 0;        // Weight syncs pulled by joiners.
  uint64_t reconfigurations = 0;  // Shard-count changes (ring rebuilds).
  uint64_t rollbacks = 0;         // Checkpoint rollbacks before this epoch.
  uint64_t checkpoint_bytes = 0;  // Size of the checkpoint sealed, if any.

  size_t num_batches = 0;
  double avg_gradient_nnz = 0.0;  // Mean d per worker message.
  double train_loss = 0.0;        // After the epoch.
  double test_loss = 0.0;

  /// Simulated wall-clock seconds of this epoch.
  double TotalSeconds() const {
    return compute_seconds + encode_seconds + decode_seconds +
           update_seconds + network_seconds;
  }

  /// CPU busy fraction of the epoch, in percent — the Figure 8(c) metric.
  /// Compressed codecs spend less time idling on the network, so their
  /// average CPU usage is higher.
  ///
  /// network_seconds is *modeled*, so a misconfigured NetworkModel can
  /// hand us a negative value; treat it as zero rather than reporting a
  /// busy fraction above 100%. The result is always in [0, 100].
  double AvgCpuPercent() const {
    const double cpu = compute_seconds + encode_seconds + decode_seconds +
                       update_seconds;
    const double network = std::max(0.0, network_seconds);
    const double total = cpu + network;
    if (total <= 0) return 0.0;
    return std::clamp(cpu / total * 100.0, 0.0, 100.0);
  }

  /// Mean gradient message size in bytes.
  double AvgMessageBytes() const {
    return messages == 0 ? 0.0
                         : static_cast<double>(bytes_up) /
                               static_cast<double>(messages);
  }

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Sums the per-epoch numbers of `stats` (loss fields take the last
/// epoch's values).
EpochStats Aggregate(const std::vector<EpochStats>& stats);

/// Publishes `stats` into the global metrics registry under `trainer/`:
/// additive fields as counters, per-epoch values (epoch number, losses,
/// mean gradient nnz) as gauges. No-op while `obs::MetricsEnabled()` is
/// false.
void PublishEpochStats(const EpochStats& stats);

/// Reconstructs an EpochStats from two registry snapshots bracketing
/// exactly one PublishEpochStats call: additive fields come from counter
/// deltas, per-epoch fields from `after`'s gauges. With a freshly reset
/// registry (`before` all zeros) the result equals the published struct
/// field for field — EpochStats is then a pure view over the registry.
EpochStats EpochStatsFromMetrics(const obs::MetricsSnapshot& before,
                                 const obs::MetricsSnapshot& after);

}  // namespace sketchml::dist

#endif  // SKETCHML_DIST_STATS_H_
