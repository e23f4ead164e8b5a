#ifndef SKETCHML_DIST_TRAINER_H_
#define SKETCHML_DIST_TRAINER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/result.h"
#include "common/sparse.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "compress/codec.h"
#include "dist/fault.h"
#include "dist/membership.h"
#include "dist/network_model.h"
#include "dist/stats.h"
#include "ml/dataset.h"
#include "ml/loss.h"
#include "ml/optimizer.h"
#include "sketch/kll_sketch.h"
#include "sketch/min_max_sketch.h"
#include "sketch/sketch_histogram.h"

namespace sketchml::dist {

/// Cluster shape for the simulator.
struct ClusterConfig {
  int num_workers = 10;
  NetworkModel network = NetworkModel::Lab1Gbps();

  /// Parameter-server shards. 1 = the paper's Spark prototype (a single
  /// driver gathers every gradient — its NIC serializes all W messages).
  /// S > 1 key-range-shards the aggregation across S server links that
  /// run in parallel, the parameter-server architecture the paper cites
  /// [22]; the gather bottleneck drops by ~S at the cost of W*S smaller
  /// messages (more per-message framing).
  int num_servers = 1;

  /// Multiplies measured gradient-computation seconds; lets experiments
  /// model slower executor hardware (e.g. the paper's JVM workers)
  /// without changing the workload.
  double compute_scale = 1.0;

  /// Multiplies measured encode/decode/aggregate seconds. Kept separate
  /// from `compute_scale` because codec kernels are tight array loops in
  /// both systems while the paper's gradient math pays full JVM overhead.
  double codec_scale = 1.0;

  /// Failure model (see dist/fault.h). Inactive by default: every
  /// message arrives intact and the trainer's byte streams, stats, and
  /// losses are bit-identical to a cluster without this field. When
  /// active, gather messages are CRC-framed, the injector can drop /
  /// corrupt / delay them, and the trainer runs the retry + quorum
  /// recovery protocol documented in docs/fault_tolerance.md.
  FaultPlan faults;

  /// Elastic-membership model (see dist/membership.h). Inactive by
  /// default: the fleet is fixed at num_workers, shards are key-range
  /// partitioned, and the trainer's byte streams, stats, and losses are
  /// bit-identical to a cluster without this field. When active, seeded
  /// join/leave/depart events fire at batch boundaries and the trainer
  /// runs the reconfiguration protocol (weight sync + residual warm
  /// start, telemetry-sketch handoff, consistent-hash shard
  /// re-partitioning). `checkpoint_every` enables epoch checkpoints
  /// independently of churn, turning a below-quorum kUnavailable epoch
  /// into rollback-and-retry.
  MembershipPlan membership;
};

/// Validates a cluster description: worker/server counts >= 1, a usable
/// NetworkModel (positive bandwidth and congestion factor, non-negative
/// latency — see NetworkModel::Validate), and a well-formed FaultPlan
/// whose min_quorum does not exceed num_workers. The trainer runs this
/// at construction and surfaces the failure from RunEpoch/Run, so a
/// misconfigured simulation returns InvalidArgument instead of silently
/// dividing by zero in TransferSeconds.
common::Status ValidateClusterConfig(const ClusterConfig& cluster);

/// Training-loop knobs (paper protocol, §4.1).
struct TrainerConfig {
  double batch_ratio = 0.1;   // Mini-batch = 10 % of the train set.
  double learning_rate = 0.1;
  double lambda = 0.01;       // ℓ2 coefficient.
  bool use_adam = true;       // Adam SGD for all candidates (§4.1).

  /// Adam's epsilon. The paper uses 1e-8 on ~11M-instance mini-batches;
  /// scaled-down workloads have much noisier gradients, and a larger
  /// epsilon damps Adam's normalized step on dimensions whose gradient is
  /// below the noise floor (otherwise rare features random-walk).
  double adam_epsilon = 1e-8;

  bool evaluate_test_loss = true;

  /// Threads of the trainer's pool, which runs the workers' pushes, the
  /// broadcast and the loss chunks. 1 = serial on the calling thread
  /// (default); 0 = one thread per hardware core; N > 1 = a pool of N.
  /// All values produce bit-identical messages, stats, and losses: every
  /// worker owns a forked codec on its own seed lane and the driver
  /// reduces gradients in fixed worker order.
  int num_threads = 1;

  /// Causal-trace sampling: while tracing is enabled, record the
  /// per-batch causal tree (batch root, per-worker push chains, modeled
  /// per-attempt network transfers) only for batches whose global index
  /// is a multiple of this value. 1 (default) traces every batch; N > 1
  /// bounds tracing overhead on long runs. The epoch span and the
  /// driver-side aggregate/update/broadcast phase spans are always
  /// recorded; batches are sampled on the *global* batch counter, so the
  /// sampled set is deterministic across thread counts. No effect while
  /// tracing is off (the disabled path stays bit-identical).
  int trace_sample_every = 1;
};

/// Data-parallel mini-batch SGD with a pluggable gradient codec — the
/// stand-in for the paper's Spark driver/executor prototype (§4.1).
///
/// Each batch runs through the same stages (the private methods below):
///   1. partition: membership events fire, and the batch is
///      range-partitioned over the W active executors;
///   2. push, one task per executor: compute a sparse gradient over its
///      slice (measured, / W for parallelism), encode it per server shard
///      (measured), send it with retries (modeled), decode it (measured);
///   3. gather: join the pushes in worker order, folding each into the
///      aggregate as it arrives; 4. reduce: stats, metrics and quorum;
///   5. update: step the optimizer (Adam by default) on the mean;
///   6. broadcast: re-encode the update with the same codec for W
///      executors (modeled). The weights are already updated, so this
///      stage only produces accounting: one pool task (inline at its join
///      without a pool) that overlaps the next batch's pushes, folded into
///      the epoch's stats at a join. The join comes before anything that
///      follows it in the serial order: the next batch's membership
///      events and gather fold, the next broadcast, the checkpoint, and
///      every return. So bytes, modeled seconds and losses are those of
///      the serial loop.
/// These stages alone decide what runs on the pool; codecs run
/// single-threaded inside a push or the broadcast.
///
/// Lossy codecs therefore distort what the optimizer sees exactly once,
/// matching the paper's architecture where compression sits on the
/// gradient aggregation path.
///
/// Error contract of the pipelined broadcast: an `Encode`/`Decode` error
/// on the driver lane becomes the epoch's status at the broadcast's join.
/// The weights then include that batch's update, as in the serial loop,
/// and the next batch's executor results, computed concurrently, are
/// discarded unapplied.
class DistributedTrainer {
 public:
  /// `codec` may be null for a no-compression (raw double) baseline.
  /// `train`/`test` and `loss` must outlive the trainer.
  DistributedTrainer(const ml::Dataset* train, const ml::Dataset* test,
                     const ml::Loss* loss,
                     std::unique_ptr<compress::GradientCodec> codec,
                     const ClusterConfig& cluster,
                     const TrainerConfig& config);

  /// Runs one epoch (one pass over the train set) and returns its stats.
  /// With checkpoints enabled (membership.checkpoint_every > 0), a
  /// below-quorum kUnavailable attempt rolls the trainer back to the
  /// last checkpoint and retries with the current (possibly shrunken)
  /// fleet, up to membership.max_rollbacks times per run; the global
  /// batch counter is NOT rewound, so a retry draws fresh fault
  /// decisions instead of replaying the fatal ones.
  common::Result<EpochStats> RunEpoch();

  /// Runs `epochs` epochs, returning per-epoch stats.
  common::Result<std::vector<EpochStats>> Run(int epochs);

  /// Serializes the trainer's full mutable training state — epoch/batch
  /// counters, optimizer (weights + moments), and every codec lane's
  /// stream state — into a CRC-framed checkpoint blob (see
  /// dist/checkpoint.h). `out` is overwritten.
  [[nodiscard]] common::Status SaveCheckpoint(std::vector<uint8_t>* out) const;

  /// Restores a SaveCheckpoint blob exactly (counters included): the
  /// trainer continues as if the intervening epochs never ran. The blob
  /// may be arbitrary bytes off disk: truncation, bit flips, or a
  /// mismatched model shape surface kCorruptedData and leave the trainer
  /// usable and unchanged (a failed restore never half-applies state —
  /// the envelope and every section, optimizer and codec lanes included,
  /// parse into scratch before anything is applied).
  [[nodiscard]] common::Status RestoreCheckpoint(
      const std::vector<uint8_t>& checkpoint);

  const ml::Optimizer& optimizer() const { return *optimizer_; }
  int epochs_run() const { return epochs_run_; }

  /// Currently active workers (== num_workers while membership is off).
  int active_workers() const {
    return static_cast<int>(directory_.active().size());
  }

  /// Checkpoint rollbacks consumed so far (bounded by max_rollbacks).
  int rollbacks_used() const { return rollbacks_used_; }

  /// Simulated wall-clock seconds so far (sum over epochs).
  double simulated_seconds() const { return simulated_seconds_; }

  /// Resolved execution threads (config value with 0 mapped to the core
  /// count).
  int num_threads() const { return num_threads_; }

 private:
  /// One epoch, no rollback handling (RunEpoch wraps this with the
  /// checkpoint-based retry loop).
  common::Result<EpochStats> RunEpochAttempt();

  /// What one batch's broadcast produced.
  struct BroadcastResult {
    common::Status status;
    uint64_t bytes_down = 0;
    double network_seconds = 0.0;  // Modeled: the slowest shard's torrent.
    double encode_seconds = 0.0;   // Measured, charged / servers.
    double decode_seconds = 0.0;   // Measured.
  };

  /// A launched broadcast plus the batch's worker-side codec seconds,
  /// which its fold charges together with the broadcast's own. Invalid
  /// `task` = nothing pending. Destroying it joins the task.
  struct PendingBroadcast {
    common::TaskFuture<BroadcastResult> task;
    int active_workers = 0;
    double worker_encode_seconds = 0.0;
    double worker_decode_seconds = 0.0;
  };

  struct WorkerResult;  // What one push produced (defined in trainer.cc).
  struct Batch;         // One batch's state, shared by its stages.

  /// Partition: the boundary's membership events (joining `broadcast`
  /// first), then the slice plan and the batch's causal root.
  common::Status PartitionBatch(size_t batch_start, size_t batch_end,
                                PendingBroadcast* broadcast,
                                EpochStats* stats, Batch* batch);
  /// Push, a task per slice: gradient, encode, send, decode, recovery.
  WorkerResult PushWorker(const Batch& batch, int slice);
  /// Gather: dispatch the pushes, fold each on arrival, join `broadcast`.
  common::Status GatherBatch(Batch* batch, PendingBroadcast* broadcast,
                             EpochStats* stats);
  /// Reduce, in worker order: statuses, stats, metrics, stalls, quorum,
  /// gather time, and last the gather's key error.
  common::Status ReduceBatch(Batch* batch, EpochStats* stats,
                             double* total_nnz);
  /// Update: the mean gradient, its finiteness check, the optimizer step.
  common::Status ApplyUpdate(Batch* batch, EpochStats* stats);

  /// Broadcast for an applied batch update: one pool task (or, with
  /// no pool, a task that runs at its join) that owns the update's shards
  /// and runs under the trace context current at launch.
  PendingBroadcast LaunchBroadcast(common::SparseGradient update,
                                   int active_workers,
                                   double worker_encode_seconds,
                                   double worker_decode_seconds);

  /// Joins a pending broadcast (no-op when none is pending) and folds its
  /// bytes, seconds and driver_seconds metrics into `stats`; returns the
  /// broadcast's codec error, if any.
  common::Status FoldBroadcast(PendingBroadcast* pending, EpochStats* stats);

  /// Epoch tail: losses, the last join, telemetry, the checkpoint, rollbacks
  /// and the published stats.
  common::Status FinishEpoch(double total_nnz, PendingBroadcast* broadcast,
                             EpochStats* stats);

  /// Serializes trainer state into the (unframed) checkpoint payload.
  void BuildCheckpointPayload(std::vector<uint8_t>* payload) const;

  /// Parses and applies a checkpoint blob. `for_rollback` keeps the
  /// monotonic counters (global batch index, accumulated simulated
  /// seconds) so a retried epoch draws *fresh* fault/membership
  /// decisions; an exact restore (RestoreCheckpoint) applies them too.
  common::Status RestoreFromBlob(const std::vector<uint8_t>& checkpoint,
                                 bool for_rollback);

  /// Applies one membership event (driver-side, serial): join = weight
  /// sync + residual warm start from the escrow, leave/depart = codec
  /// lane state into the escrow + telemetry-sketch handoff. Protocol
  /// bytes are charged to the NetworkModel via `stats`; telemetry bytes
  /// go to telemetry/* counters only.
  void ApplyMembershipEvent(const MembershipEvent& event, EpochStats* stats);

  /// Epoch-boundary shard re-partitioning: recomputes the active server
  /// count from the fleet size and, when it changed, hands mergeable
  /// sketch state shard-to-shard (serialize → transfer → merge, bytes
  /// charged to the NetworkModel) and rebuilds the consistent-hash ring.
  common::Status ReconfigureShards(EpochStats* stats);

  /// Charges a membership handoff blob of `bytes` to the network.
  void ChargeHandoff(size_t bytes, EpochStats* stats);

  /// Feeds the batch's aggregated gradient into the owning shards'
  /// mergeable state (KLL over |value|, MinMaxSketch key->bucket cache).
  void UpdateShardState(const common::SparseGradient& grad);

  /// Owning server shard of a gradient key: the consistent-hash ring
  /// while membership is active (shards come and go, see
  /// ReconfigureShards), the key-range partition otherwise (identity with
  /// one server), so churn-off byte streams match the fixed-fleet trainer.
  int ShardOf(uint64_t key) const;

  /// Splits a key-sorted gradient into one key-sorted piece per server
  /// shard (index = shard).
  std::vector<common::SparseGradient> SplitByShard(
      common::SparseGradient grad) const;

  /// Merges the telemetry-sketch tails of workers [first_worker,
  /// end_worker) into the cluster-wide slots, lane by lane (see
  /// SketchTelemetry). `drain` consumes the tails (a leaving worker);
  /// otherwise they stay in place for AdvanceWindows to retire at the
  /// epoch boundary.
  void MergeTelemetryTails(int first_worker, int end_worker, bool drain);

  /// Per-entity labeled counters, resolved once at construction when
  /// metrics are enabled. Values are published from the driver's
  /// fixed-order reduce loop with the same scale factors EpochStats uses,
  /// so the per-entity slices reconcile exactly with the aggregate
  /// "trainer/*_seconds" counters:
  ///   compute = Σ_w worker_seconds{worker=w,phase=compute}
  ///   encode  = Σ_w worker_seconds{worker=w,phase=encode}
  ///             + driver_seconds{phase=encode}
  ///   decode  = Σ_s server_seconds{server=s,phase=decode}
  ///             + driver_seconds{phase=decode}
  ///   update  = driver_seconds{phase=update}
  ///   network = driver_seconds{phase=network}
  /// server_seconds{phase=gather} is the modeled per-link gather time
  /// (network takes the max of these per batch, so gather slices bound —
  /// rather than sum to — the network total).
  struct EntityMetrics {
    bool enabled = false;
    std::vector<obs::Counter> worker_compute;       // {worker=w,phase=compute}
    std::vector<obs::Counter> worker_encode;        // {worker=w,phase=encode}
    std::vector<obs::Counter> worker_recovery_err;  // recovery_error_l1
    std::vector<obs::Counter> worker_recovery_ref;  // recovery_ref_l1
    std::vector<obs::Counter> server_decode;        // {server=s,phase=decode}
    std::vector<obs::Counter> server_gather;        // {server=s,phase=gather}
    std::vector<obs::Counter> server_bytes;         // gather_bytes{server=s}
    obs::Counter driver_encode;
    obs::Counter driver_decode;
    obs::Counter driver_update;
    obs::Counter driver_network;
  };

  /// KLL-backed per-batch latency distributions — the sketch-native
  /// telemetry layer. Each worker has its own sketch per lane
  /// (compute/encode measured seconds, push modeled seconds); the driver
  /// records into them from the fixed-order reduce loop (single writer,
  /// so snapshots are identical at any --threads) and at every epoch
  /// boundary serializes each worker's window tail, merges it into the
  /// cluster-wide slot (the paper's sketch mergeability as the metric
  /// aggregation primitive), and retires the window. Serialized bytes are
  /// charged to telemetry/* counters only — never to the NetworkModel —
  /// so obs-on/off stays bit-identical.
  ///
  /// The push lane records *modeled* transfer seconds and carries
  /// "modeled" in its name: deterministic for a fixed seed, so the SLO
  /// gate can diff its quantiles across runs even under --ignore-times.
  /// Live exactly when EntityMetrics is (`metrics_.enabled`).
  struct SketchTelemetry {
    // trainer/compute_latency_seconds{worker=w} etc.
    std::vector<obs::SketchHistogram> worker_compute;
    std::vector<obs::SketchHistogram> worker_encode;
    std::vector<obs::SketchHistogram> worker_push;  // push_modeled_seconds
    // Cluster-wide merged slots (same base names, no labels).
    obs::SketchHistogram cluster_compute;
    obs::SketchHistogram cluster_encode;
    obs::SketchHistogram cluster_push;
    obs::Counter merges;       // telemetry/merges
    obs::Counter merge_bytes;  // telemetry/merge_bytes
  };

  /// Membership/checkpoint counters, registered only when the feature
  /// that publishes them is on (churn counters with an active plan,
  /// checkpoint counters with checkpoints enabled): a churn-off run must
  /// register no new metric names, keeping its dump and series files
  /// bit-identical to a build without the membership layer. Published
  /// from the driver loop only.
  struct MembershipMetrics {
    bool churn = false;        // membership/* churn counters live.
    bool checkpoints = false;  // checkpoint/rollback counters live.
    obs::Counter joins;             // membership/events{kind=join}
    obs::Counter leaves;            // membership/events{kind=leave}
    obs::Counter departs;           // membership/events{kind=depart}
    obs::Counter handoff_bytes;     // membership/handoff_bytes
    obs::Counter sync_bytes;        // membership/sync_bytes
    obs::Counter reconfigurations;  // membership/reconfigurations
    obs::Gauge active_workers;      // membership/active_workers
    obs::Gauge active_servers;      // membership/active_servers
    obs::Counter rollbacks;         // membership/rollbacks
    obs::Counter checkpoint_bytes;  // membership/checkpoint_bytes
  };

  /// Fault-path counters, resolved at construction only when the plan is
  /// active and metrics are on. Published from the driver's fixed-order
  /// reduce loop (single writer), never from worker threads.
  struct FaultMetrics {
    static constexpr int kWorkerKinds = 4;
    static constexpr const char* kKindNames[kWorkerKinds] = {
        "drop", "corrupt", "straggle", "crash"};
    bool enabled = false;
    // fault/injected{kind=kKindNames[k],worker=w}, net/* per worker.
    std::vector<obs::Counter> injected[kWorkerKinds];
    std::vector<obs::Counter> injected_stall;     // {kind=stall,server=s}
    std::vector<obs::Counter> retries;            // net/retries{worker=w}
    std::vector<obs::Counter> retransmit_bytes;
    obs::Counter lost_messages;                   // net/lost_messages
    obs::Gauge quorum;                            // trainer/quorum (last batch)
  };

  const ml::Dataset* train_;
  const ml::Dataset* test_;
  const ml::Loss* loss_;
  std::unique_ptr<compress::GradientCodec> codec_;  // Server/broadcast lane.
  // One forked codec per worker id (its seed lane), so concurrent
  // executors never share mutable codec state.
  std::vector<std::unique_ptr<compress::GradientCodec>> worker_codecs_;
  std::unique_ptr<common::ThreadPool> pool_;  // Null when num_threads_ == 1.
  int num_threads_ = 1;
  ClusterConfig cluster_;
  TrainerConfig config_;
  std::unique_ptr<ml::Optimizer> optimizer_;
  /// Driver-side sum of each batch's decoded worker gradients, over the
  /// model's keys. Clean between batches.
  common::KeyAccumulator aggregate_;
  EntityMetrics metrics_;
  SketchTelemetry sketch_metrics_;
  FaultMetrics fault_metrics_;
  MembershipMetrics membership_metrics_;
  /// Non-OK when the ClusterConfig failed validation; RunEpoch returns
  /// this instead of training (the constructor cannot return a Status).
  common::Status init_status_;
  FaultInjector injector_;
  bool faults_active_ = false;  // CRC-frame gather messages; fault metrics.
  bool membership_active_ = false;
  bool checkpoints_enabled_ = false;
  /// Membership state machine; initialized for every run (with an
  /// inactive plan it pins the identity fleet 0..num_workers-1, so
  /// `directory_.active()` is THE worker-id list on both paths).
  MembershipDirectory directory_;
  ShardRing ring_;             // Rebuilt on every shard-count change.
  int initial_workers_ = 0;    // cluster_.num_workers at construction.
  int active_servers_ = 0;     // Shards currently owning key ranges.
  /// Per-shard mergeable aggregation state (membership-active only):
  /// a KLL sketch of |aggregated gradient| values and a MinMaxSketch
  /// caching key -> log2-magnitude buckets. Their only role here is to
  /// be the state that re-partitioning must hand shard-to-shard; both
  /// merge exactly (the paper's mergeability), so a re-partition is a
  /// serialize + transfer + merge instead of a rebuild.
  std::vector<sketch::KllSketch> shard_values_;
  std::vector<sketch::MinMaxSketch> shard_keys_;
  /// FIFO escrow of codec-lane state blobs saved by leaving workers;
  /// joiners adopt the oldest blob as their warm-start residual.
  std::deque<std::vector<uint8_t>> residual_escrow_;
  std::vector<uint8_t> checkpoint_;  // Last sealed checkpoint (maybe empty).
  int rollbacks_used_ = 0;
  uint64_t pending_rollbacks_ = 0;  // Rollbacks to report in the next stats.
  int epochs_run_ = 0;
  uint64_t batches_run_ = 0;  // Global batch index fed to the injector.
  double simulated_seconds_ = 0.0;
};

}  // namespace sketchml::dist

#endif  // SKETCHML_DIST_TRAINER_H_
