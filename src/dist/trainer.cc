#include "dist/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/byte_buffer.h"
#include "common/framing.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "compress/raw_codec.h"
#include "dist/checkpoint.h"
#include "ml/gradient.h"

namespace sketchml::dist {

namespace {

/// Fixed seed/geometry of the per-shard mergeable state: every shard
/// (and every run) uses the same values, so serialize -> merge across
/// shards is always legal and the state is a pure function of the
/// aggregated gradient stream.
constexpr uint64_t kShardSketchSeed = 0x5ad5ad5ad5ad5ad5ULL;
constexpr int kShardKeyRows = 3;
constexpr int kShardKeyCols = 1024;

/// Log2-magnitude bucket of a gradient value for the shard key cache
/// (MinMaxSketch stores one byte per key; bucket 0 = tiniest/zero).
uint8_t MagnitudeBucket(double value) {
  const double magnitude = std::abs(value);
  if (!(magnitude > 0.0)) return 0;
  int exponent = 0;
  (void)std::frexp(magnitude, &exponent);
  // exponent of normal doubles spans about [-1021, 1025); shift into
  // [0, 254] so kEmpty (255) keeps its "never written" meaning.
  const int bucket = (exponent + 1074) / 9;
  return static_cast<uint8_t>(std::clamp(bucket, 0, 254));
}

/// A fresh optimizer for `config`: Adam (the paper's) or plain SGD.
std::unique_ptr<ml::Optimizer> MakeOptimizer(uint64_t dim,
                                             const TrainerConfig& config) {
  if (config.use_adam) {
    return std::make_unique<ml::AdamOptimizer>(
        dim, config.learning_rate, 0.9, 0.999, config.adam_epsilon);
  }
  return std::make_unique<ml::SgdOptimizer>(dim, config.learning_rate);
}

/// Adds one message's |sent - decoded| to `error_l1` and |sent| to
/// `ref_l1`; keys are exact, so the sorted lists walk in lockstep.
void AddRecoveryError(const common::SparseGradient& sent,
                      const common::SparseGradient& got, double* error_l1,
                      double* ref_l1) {
  size_t j = 0;
  for (const auto& pair : sent) {
    while (j < got.size() && got[j].key < pair.key) ++j;
    const double value =
        (j < got.size() && got[j].key == pair.key) ? got[j].value : 0.0;
    *error_l1 += std::abs(value - pair.value);
    *ref_l1 += std::abs(pair.value);
  }
}

}  // namespace

common::Status ValidateClusterConfig(const ClusterConfig& cluster) {
  if (cluster.num_workers < 1) {
    return common::Status::InvalidArgument(
        "ClusterConfig.num_workers must be >= 1");
  }
  if (cluster.num_servers < 1) {
    return common::Status::InvalidArgument(
        "ClusterConfig.num_servers must be >= 1");
  }
  SKETCHML_RETURN_IF_ERROR(cluster.network.Validate());
  if (!(cluster.compute_scale >= 0.0)) {
    return common::Status::InvalidArgument(
        "ClusterConfig.compute_scale must be >= 0");
  }
  if (!(cluster.codec_scale >= 0.0)) {
    return common::Status::InvalidArgument(
        "ClusterConfig.codec_scale must be >= 0");
  }
  SKETCHML_RETURN_IF_ERROR(ValidateFaultPlan(cluster.faults));
  if (cluster.faults.min_quorum > cluster.num_workers) {
    return common::Status::InvalidArgument(
        "FaultPlan.min_quorum exceeds num_workers: no batch could ever "
        "reach quorum");
  }
  SKETCHML_RETURN_IF_ERROR(ValidateMembershipPlan(cluster.membership));
  if (ResolvedMaxWorkers(cluster.membership, cluster.num_workers) <
      cluster.num_workers) {
    return common::Status::InvalidArgument(
        "MembershipPlan.max_workers is below num_workers: the starting "
        "fleet would not fit the id universe");
  }
  if (cluster.membership.min_workers > cluster.num_workers) {
    return common::Status::InvalidArgument(
        "MembershipPlan.min_workers exceeds num_workers: the starting "
        "fleet is already below the scale-down floor");
  }
  // FaultPlan x MembershipPlan cross-validation: after the maximum
  // scheduled scale-down only min_workers workers remain active, so a
  // quorum above that can never be met once churn shrinks the fleet —
  // every later epoch would fail kUnavailable by construction.
  if (cluster.membership.CanShrink() &&
      cluster.faults.min_quorum > cluster.membership.min_workers) {
    return common::Status::InvalidArgument(
        "FaultPlan.min_quorum (" +
        std::to_string(cluster.faults.min_quorum) +
        ") can never be met after the maximum scheduled scale-down: "
        "MembershipPlan.min_workers leaves only " +
        std::to_string(cluster.membership.min_workers) +
        " active workers");
  }
  return common::Status::Ok();
}

DistributedTrainer::DistributedTrainer(
    const ml::Dataset* train, const ml::Dataset* test, const ml::Loss* loss,
    std::unique_ptr<compress::GradientCodec> codec,
    const ClusterConfig& cluster, const TrainerConfig& config)
    : train_(train),
      test_(test),
      loss_(loss),
      codec_(std::move(codec)),
      cluster_(cluster),
      config_(config),
      injector_(cluster.faults) {
  SKETCHML_CHECK(train != nullptr);
  SKETCHML_CHECK(loss != nullptr);
  // Recoverable configuration errors surface from RunEpoch/Run (a
  // constructor cannot return a Status); skip the remaining setup so a
  // bad NetworkModel never reaches TransferSeconds.
  init_status_ = ValidateClusterConfig(cluster_);
  if (!init_status_.ok()) return;
  faults_active_ = cluster_.faults.Active();
  membership_active_ = cluster_.membership.Active();
  checkpoints_enabled_ = cluster_.membership.CheckpointsEnabled();
  initial_workers_ = cluster_.num_workers;
  // The directory exists on both paths: with an inactive plan it pins
  // the identity fleet 0..num_workers-1 forever, so directory_.active()
  // is always the list of worker ids a batch partitions over.
  directory_ = MembershipDirectory(cluster_.membership, cluster_.num_workers);
  active_servers_ = cluster_.num_servers;
  if (membership_active_) {
    ring_.Rebuild(active_servers_);
    // Per-shard mergeable state (see the header): telemetry-internal
    // sketches, excluded from the sketch/kll/* self-metrics like the
    // obs layer's own sketches.
    shard_values_.reserve(cluster_.num_servers);
    shard_keys_.reserve(cluster_.num_servers);
    for (int s = 0; s < cluster_.num_servers; ++s) {
      shard_values_.emplace_back(/*k=*/256, /*seed=*/kShardSketchSeed);
      shard_values_.back().SetInstrumented(false);
      shard_keys_.emplace_back(kShardKeyRows, kShardKeyCols,
                               kShardSketchSeed);
    }
  }
  if (codec_ == nullptr) {
    codec_ = std::make_unique<compress::RawCodec>();
  }
  optimizer_ = MakeOptimizer(train->dim(), config_);

  // One forked codec per worker lane — one per id in the membership
  // universe, not just the starting fleet, so a worker that joins later
  // already owns its deterministic seed lane. Forking is independent of
  // the thread count so that every thread count replays the same byte
  // streams (worker w always encodes with lane w).
  const int fleet = directory_.universe();
  num_threads_ = config_.num_threads == 0
                     ? common::ThreadPool::DefaultThreadCount()
                     : std::max(1, config_.num_threads);
  worker_codecs_.reserve(fleet);
  for (int w = 0; w < fleet; ++w) {
    worker_codecs_.push_back(codec_->Fork(static_cast<uint64_t>(w)));
    worker_codecs_.back()->SetMetricLabel("worker", std::to_string(w));
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<common::ThreadPool>(num_threads_, "trainer");
  }

  if (obs::MetricsEnabled()) {
    metrics_.enabled = true;
    auto& registry = obs::MetricsRegistry::Global();
    for (int w = 0; w < fleet; ++w) {
      const std::string ws = std::to_string(w);
      metrics_.worker_compute.push_back(registry.GetCounter(
          "trainer/worker_seconds", {{"worker", ws}, {"phase", "compute"}}));
      metrics_.worker_encode.push_back(registry.GetCounter(
          "trainer/worker_seconds", {{"worker", ws}, {"phase", "encode"}}));
      metrics_.worker_recovery_err.push_back(
          registry.GetCounter("trainer/recovery_error_l1", {{"worker", ws}}));
      metrics_.worker_recovery_ref.push_back(
          registry.GetCounter("trainer/recovery_ref_l1", {{"worker", ws}}));
    }
    for (int s = 0; s < cluster_.num_servers; ++s) {
      const std::string ss = std::to_string(s);
      metrics_.server_decode.push_back(registry.GetCounter(
          "trainer/server_seconds", {{"server", ss}, {"phase", "decode"}}));
      metrics_.server_gather.push_back(registry.GetCounter(
          "trainer/server_seconds", {{"server", ss}, {"phase", "gather"}}));
      metrics_.server_bytes.push_back(
          registry.GetCounter("trainer/gather_bytes", {{"server", ss}}));
    }
    metrics_.driver_encode =
        registry.GetCounter("trainer/driver_seconds", {{"phase", "encode"}});
    metrics_.driver_decode =
        registry.GetCounter("trainer/driver_seconds", {{"phase", "decode"}});
    metrics_.driver_update =
        registry.GetCounter("trainer/driver_seconds", {{"phase", "update"}});
    metrics_.driver_network =
        registry.GetCounter("trainer/driver_seconds", {{"phase", "network"}});

    // Sketch-native latency telemetry: per-worker KLL-backed sketches
    // plus the cluster-wide slots the driver merges them into at every
    // epoch boundary. See SketchTelemetry in the header.
    auto& sketches = obs::SketchHistogramRegistry::Global();
    for (int w = 0; w < fleet; ++w) {
      const std::string ws = std::to_string(w);
      sketch_metrics_.worker_compute.push_back(sketches.Get(
          "trainer/compute_latency_seconds", {{"worker", ws}}));
      sketch_metrics_.worker_encode.push_back(
          sketches.Get("trainer/encode_latency_seconds", {{"worker", ws}}));
      sketch_metrics_.worker_push.push_back(
          sketches.Get("trainer/push_modeled_seconds", {{"worker", ws}}));
    }
    sketch_metrics_.cluster_compute =
        sketches.Get("trainer/compute_latency_seconds");
    sketch_metrics_.cluster_encode =
        sketches.Get("trainer/encode_latency_seconds");
    sketch_metrics_.cluster_push = sketches.Get("trainer/push_modeled_seconds");
    sketch_metrics_.merges = registry.GetCounter("telemetry/merges");
    sketch_metrics_.merge_bytes = registry.GetCounter("telemetry/merge_bytes");
  }

  // Fault counters exist only when the plan is active: a fault-free run
  // must register no new metric names, keeping its dump and series files
  // bit-identical to a build without the fault layer.
  if (faults_active_ && obs::MetricsEnabled()) {
    fault_metrics_.enabled = true;
    auto& registry = obs::MetricsRegistry::Global();
    for (int w = 0; w < fleet; ++w) {
      const std::string ws = std::to_string(w);
      for (int kind = 0; kind < FaultMetrics::kWorkerKinds; ++kind) {
        fault_metrics_.injected[kind].push_back(registry.GetCounter(
            "fault/injected",
            {{"kind", FaultMetrics::kKindNames[kind]}, {"worker", ws}}));
      }
      fault_metrics_.retries.push_back(
          registry.GetCounter("net/retries", {{"worker", ws}}));
      fault_metrics_.retransmit_bytes.push_back(
          registry.GetCounter("net/retransmit_bytes", {{"worker", ws}}));
    }
    for (int s = 0; s < cluster_.num_servers; ++s) {
      fault_metrics_.injected_stall.push_back(registry.GetCounter(
          "fault/injected",
          {{"kind", "stall"}, {"server", std::to_string(s)}}));
    }
    fault_metrics_.lost_messages = registry.GetCounter("net/lost_messages");
    fault_metrics_.quorum = registry.GetGauge("trainer/quorum");
  }

  // Membership counters follow the fault-metric discipline: each group
  // registers only when the feature that publishes it is on, so a
  // churn-off (or checkpoint-off) run registers no new names and its
  // metric dumps stay bit-identical to the previous layer's goldens.
  if (membership_active_ && obs::MetricsEnabled()) {
    membership_metrics_.churn = true;
    auto& registry = obs::MetricsRegistry::Global();
    membership_metrics_.joins =
        registry.GetCounter("membership/events", {{"kind", "join"}});
    membership_metrics_.leaves =
        registry.GetCounter("membership/events", {{"kind", "leave"}});
    membership_metrics_.departs =
        registry.GetCounter("membership/events", {{"kind", "depart"}});
    membership_metrics_.handoff_bytes =
        registry.GetCounter("membership/handoff_bytes");
    membership_metrics_.sync_bytes =
        registry.GetCounter("membership/sync_bytes");
    membership_metrics_.reconfigurations =
        registry.GetCounter("membership/reconfigurations");
    membership_metrics_.active_workers =
        registry.GetGauge("membership/active_workers");
    membership_metrics_.active_servers =
        registry.GetGauge("membership/active_servers");
  }
  if (checkpoints_enabled_ && obs::MetricsEnabled()) {
    membership_metrics_.checkpoints = true;
    auto& registry = obs::MetricsRegistry::Global();
    membership_metrics_.rollbacks =
        registry.GetCounter("membership/rollbacks");
    membership_metrics_.checkpoint_bytes =
        registry.GetCounter("membership/checkpoint_bytes");
  }
}

/// What one worker's push produced. Pushes share no mutable state: worker
/// w's codec is its own forked seed lane, so results are bit-identical at
/// any thread count.
struct DistributedTrainer::WorkerResult {
  common::Status status;
  common::SparseGradient decoded;  // Decoded pairs, in shard order.
  // What the worker sent each server shard (index = shard). A shard it
  // sent no message has 0 bytes.
  struct ShardSend {
    size_t bytes = 0;             // Message bytes on the wire.
    double decode_seconds = 0.0;  // The server's decode, charged to it.
    double link_seconds = 0.0;    // Modeled gather link, retries included.
  };
  std::vector<ShardSend> shards;
  size_t nnz = 0;
  double compute_seconds = 0.0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  // L1 of (sent - decoded) and of sent, the relative recovery error's
  // parts. Filled only when metrics are on, and read-only either way, so
  // bytes and losses are bit-identical with metrics on or off.
  double recovery_error_l1 = 0.0;
  double recovery_ref_l1 = 0.0;
  // Fault accounting (all zero when the plan is inactive). A worker
  // contributes only if it did not crash and every message was delivered.
  bool crashed = false;
  bool straggled = false;
  bool contributes = true;
  uint64_t injected_drops = 0;
  uint64_t injected_corruptions = 0;
  uint64_t retries = 0;
  uint64_t retransmit_bytes = 0;
  uint64_t lost = 0;
  double retry_seconds = 0.0;  // Backoff + retransmit link time.
};

/// One batch as it moves through the stages, each filling the fields the
/// next ones read.
struct DistributedTrainer::Batch {
  explicit Batch(common::KeyAccumulator* aggregate) : aggregate(aggregate) {}
  // A batch leaves the accumulator clean: a successful one drains it, and
  // an early return (a worker's error, a quorum failure) clears it here.
  ~Batch() {
    if (aggregate->touched() > 0) aggregate->Clear();
  }
  Batch(const Batch&) = delete;  // Pushes hold its address.
  Batch& operator=(const Batch&) = delete;

  common::KeyAccumulator* aggregate;
  uint64_t index = 0;  // Global batch number: every fault decision's key.
  // Slice i, ranges[i], belongs to worker ids[i]: the id keys fault
  // decisions and picks the codec seed lane, while ranges and results
  // stay slice-indexed. With membership off ids[i] == i.
  std::span<const int> ids;
  std::vector<std::pair<size_t, size_t>> ranges;
  // Causal root of this batch (see PartitionBatch), and its context.
  std::optional<obs::TraceSpan> span;
  obs::SpanContext ctx;
  std::vector<WorkerResult> results;
  common::Status key_error;  // The first decoded key past the model.
  double fold_seconds = 0.0;
  int contributing = 0;  // Workers whose gradient reached the aggregate.
  double compute_sum = 0.0;
  double encode_sum = 0.0;
  double decode_sum = 0.0;
  common::SparseGradient mean_grad;

  int active_workers() const { return static_cast<int>(ranges.size()); }
};

common::Result<EpochStats> DistributedTrainer::RunEpochAttempt() {
  const size_t n = train_->size();
  const size_t batch_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * config_.batch_ratio));
  aggregate_.Resize(train_->dim());

  EpochStats stats;
  stats.epoch = ++epochs_run_;
  if (membership_active_) {
    // Epoch-boundary re-partitioning: servers scale with the fleet, and
    // shard state moves via mergeable-sketch handoff.
    SKETCHML_RETURN_IF_ERROR(ReconfigureShards(&stats));
  }
  double total_nnz = 0.0;

  obs::TraceSpan epoch_span("trainer", "epoch");
  epoch_span.Arg("epoch", static_cast<double>(stats.epoch));

  // The previous batch's broadcast, overlapping this batch's workers. Every
  // return below destroys it, which joins the task before the trainer
  // state it reads (the driver codec lane) can change.
  PendingBroadcast broadcast;
  for (size_t batch_start = 0; batch_start < n; batch_start += batch_size) {
    Batch batch(&aggregate_);
    SKETCHML_RETURN_IF_ERROR(PartitionBatch(
        batch_start, std::min(n, batch_start + batch_size), &broadcast,
        &stats, &batch));
    if (batch.ranges.empty()) continue;
    SKETCHML_RETURN_IF_ERROR(GatherBatch(&batch, &broadcast, &stats));
    SKETCHML_RETURN_IF_ERROR(ReduceBatch(&batch, &stats, &total_nnz));
    SKETCHML_RETURN_IF_ERROR(ApplyUpdate(&batch, &stats));
    // The broadcast overlaps the next batch's pushes. The batch span
    // closes after the task has captured its context.
    broadcast = LaunchBroadcast(std::move(batch.mean_grad),
                                batch.active_workers(), batch.encode_sum,
                                batch.decode_sum);
    // Every fault decision keys on this lifetime batch number, so faults
    // replay identically across epochs and thread counts.
    ++batches_run_;
  }
  SKETCHML_RETURN_IF_ERROR(FinishEpoch(total_nnz, &broadcast, &stats));
  return stats;
}

common::Status DistributedTrainer::PartitionBatch(size_t batch_start,
                                                  size_t batch_end,
                                                  PendingBroadcast* broadcast,
                                                  EpochStats* stats,
                                                  Batch* batch) {
  // Membership events key on the global batch counter, like faults, so
  // churn replays identically across epochs and thread counts. With an
  // inactive plan the fleet stays 0..num_workers-1.
  if (membership_active_) {
    std::vector<MembershipEvent> events;
    directory_.ApplyBatch(batches_run_, &events);
    // Events add to network_seconds, after the previous broadcast.
    if (!events.empty()) {
      SKETCHML_RETURN_IF_ERROR(FoldBroadcast(broadcast, stats));
    }
    for (const MembershipEvent& event : events) {
      ApplyMembershipEvent(event, stats);
    }
  }
  batch->index = batches_run_;
  batch->ids = directory_.active();
  const int workers = static_cast<int>(batch->ids.size());
  const size_t shard = std::max<size_t>(
      1, (batch_end - batch_start + workers - 1) / workers);
  for (int i = 0; i < workers; ++i) {
    const size_t lo = batch_start + static_cast<size_t>(i) * shard;
    if (lo >= batch_end) break;
    batch->ranges.emplace_back(lo, std::min(batch_end, lo + shard));
  }

  // Causal root of this batch: every push adopts its context on whatever
  // thread runs it, so the batch is one rooted tree. Sampling keys on the
  // global batch counter, so the sampled set is the same at any thread
  // count; an unsampled batch's invalid context elides the causal spans.
  if (obs::TracingEnabled() &&
      batch->index % static_cast<uint64_t>(
                         std::max(1, config_.trace_sample_every)) == 0) {
    batch->span.emplace("trainer", "batch");
    batch->span->Arg("batch", static_cast<double>(batch->index));
  }
  batch->ctx = batch->span ? batch->span->context() : obs::SpanContext{};
  return common::Status::Ok();
}

DistributedTrainer::WorkerResult DistributedTrainer::PushWorker(
    const Batch& batch, int slice) {
  const int servers = cluster_.num_servers;
  const int w = batch.ids[slice];
  WorkerResult r;
  r.shards.resize(servers);
  if (injector_.WorkerCrashed(batch.index, w)) {
    // Crash-for-k-batches: the executor is down, computes nothing and
    // sends nothing. It rejoins via the (fault-free) weight broadcast.
    r.crashed = true;
    r.contributes = false;
    return r;
  }
  const double straggle = injector_.StraggleFactor(batch.index, w);
  r.straggled = straggle > 1.0;
  compress::GradientCodec* codec = worker_codecs_[w].get();
  // This task may run on a pool thread: adopt the batch's context, so
  // the push span and every span inside it (compute, encode/decode, the
  // modeled transfers) chain under the batch.
  obs::TraceContextScope batch_scope(batch.ctx);
  std::optional<obs::TraceSpan> push_span;
  if (batch.ctx.valid()) {
    push_span.emplace("trainer", "push");
    push_span->Arg("worker", static_cast<double>(w));
    push_span->Arg("batch", static_cast<double>(batch.index));
  }
  common::Stopwatch task_watch;
  common::SparseGradient grad;
  {
    std::optional<obs::TraceSpan> span;
    if (batch.ctx.valid()) {
      span.emplace("trainer", "compute");
      span->Arg("worker", static_cast<double>(w));
    }
    const auto [lo, hi] = batch.ranges[slice];
    grad = ml::ComputeBatchGradient(*loss_, optimizer_->weights(), *train_,
                                    lo, hi, config_.lambda);
  }
  r.compute_seconds = task_watch.Restart() * straggle;
  r.nnz = grad.size();
  const std::vector<common::SparseGradient> per_shard =
      SplitByShard(std::move(grad));

  for (int s = 0; s < servers; ++s) {
    if (per_shard[s].empty()) continue;
    task_watch.Restart();
    compress::EncodedGradient msg;
    r.status = codec->Encode(per_shard[s], &msg);
    if (!r.status.ok()) return r;
    r.encode_seconds += task_watch.Restart() * straggle;

    // What crosses the wire: the message itself, or with an active
    // plan the message inside a CRC frame, so the server can tell wire
    // damage from a codec fault. Every attempt charges one transfer to
    // this shard's gather link; each retry first waits out an
    // exponential backoff. Drop/corrupt decisions are pure functions
    // of (seed, batch, worker, server, attempt), so the sequence is
    // replayable and independent of thread interleaving; an inactive
    // plan's draws never fire, so it sends exactly one attempt.
    compress::EncodedGradient framed;
    if (faults_active_) common::FrameMessage(msg.bytes, &framed.bytes);
    const compress::EncodedGradient& sent = faults_active_ ? framed : msg;
    const double transfer = cluster_.network.TransferSeconds(sent.size());
    r.shards[s].bytes = sent.size();
    bool delivered = false;
    const int attempts = injector_.plan().max_retries + 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const double backoff =
          attempt > 0 ? injector_.BackoffSeconds(attempt) : 0.0;
      if (attempt > 0) {
        ++r.retries;
        r.retransmit_bytes += sent.size();
        r.retry_seconds += backoff + transfer;
      }
      // Two adds, transfer first: one `+= transfer + backoff` would
      // round differently and move the modeled seconds.
      r.shards[s].link_seconds += transfer;
      r.shards[s].link_seconds += backoff;
      if (batch.ctx.valid()) {
        // Modeled wire time for this delivery attempt (retries also
        // include the backoff wait that preceded them), one span per
        // attempt so retry amplification is visible in the tree.
        obs::EmitSpan("network", "transfer", obs::NowNs(),
                      static_cast<uint64_t>((transfer + backoff) * 1e9),
                      {{"attempt", static_cast<double>(attempt)},
                       {"bytes", static_cast<double>(sent.size())}});
      }
      if (injector_.ShouldDrop(batch.index, w, s, attempt)) {
        ++r.injected_drops;
        continue;  // Vanished in flight; the sender times out, resends.
      }
      const compress::EncodedGradient* received = &sent;
      compress::EncodedGradient damaged;
      if (injector_.ShouldCorrupt(batch.index, w, s, attempt)) {
        ++r.injected_corruptions;
        damaged = sent;
        injector_.Corrupt(&damaged.bytes, batch.index, w, s, attempt);
        received = &damaged;
      }
      // Server side: check the frame, then decode; servers run in
      // parallel, so charge the time / servers. A damaged frame is NACKed
      // and resent, its check time charged to decode.
      task_watch.Restart();
      common::Status frame_check;
      compress::EncodedGradient payload;
      if (faults_active_) {
        frame_check = common::UnframeMessage(received->bytes, &payload.bytes);
        received = &payload;
      }
      common::SparseGradient decoded;
      if (frame_check.ok()) r.status = codec->Decode(*received, &decoded);
      const double decode_elapsed = task_watch.Restart() / servers;
      r.decode_seconds += decode_elapsed;
      r.shards[s].decode_seconds += decode_elapsed;
      if (!frame_check.ok()) continue;
      // Intact bytes the codec cannot decode are a codec fault, not
      // wire damage: resending them cannot help, so the batch fails.
      if (!r.status.ok()) return r;
      delivered = true;
      if (metrics_.enabled) {
        AddRecoveryError(per_shard[s], decoded, &r.recovery_error_l1,
                         &r.recovery_ref_l1);
      }
      if (r.decoded.empty()) {
        r.decoded = std::move(decoded);
      } else {
        r.decoded.insert(r.decoded.end(), decoded.begin(), decoded.end());
      }
      break;
    }
    if (!delivered) {
      // Retry budget exhausted: the sender's final timeout closes the
      // exchange and the driver drops this worker from the batch.
      const double timeout = injector_.BackoffSeconds(attempts);
      r.shards[s].link_seconds += timeout;
      r.retry_seconds += timeout;
      ++r.lost;
      r.contributes = false;
    }
  }
  return r;
}

common::Status DistributedTrainer::GatherBatch(Batch* batch,
                                               PendingBroadcast* broadcast,
                                               EpochStats* stats) {
  // Every push is a task: a pool task when there is a pool and more than
  // one worker, else one that runs at its join. Worker i is joined and
  // folded before worker i + 1, so the fold order, the error precedence
  // and the pool task count are the same at any thread count.
  const int active_workers = batch->active_workers();
  batch->results.resize(active_workers);
  std::vector<common::TaskFuture<WorkerResult>> pushes(active_workers);
  for (int i = 0; i < active_workers; ++i) {
    auto push = [this, batch, i] { return PushWorker(*batch, i); };
    pushes[i] = pool_ != nullptr && active_workers > 1
                    ? pool_->Submit(std::move(push))
                    : common::Deferred(std::move(push));
  }

  // Fold each contributing worker's decoded pairs into the accumulator
  // as it arrives, in worker order, so each key's float sum is the same
  // at any thread count. A failed worker is skipped: ReduceBatch fails
  // the batch on its status. The first key past the model stops the
  // fold; it fails the batch after every status and the quorum check.
  const uint64_t model_dim = train_->dim();
  common::Stopwatch watch;
  for (int i = 0; i < active_workers; ++i) {
    batch->results[i] = pushes[i].Get();
    const WorkerResult& r = batch->results[i];
    if (!r.status.ok() || !r.contributes || !batch->key_error.ok()) continue;
    watch.Restart();
    for (const auto& pair : r.decoded) {
      // Nothing between Decode and Apply checks the index again: a key
      // past the model would write outside the accumulator and weights.
      if (pair.key >= model_dim) {
        batch->key_error = common::Status::CorruptedData(
            "worker " + std::to_string(batch->ids[i]) + " decoded key " +
            std::to_string(pair.key) + " outside model dim " +
            std::to_string(model_dim) + " at batch " +
            std::to_string(batch->index));
        break;
      }
      aggregate_.Add(pair.key, pair.value);
    }
    batch->fold_seconds += watch.Restart();
  }
  // The previous broadcast's modeled seconds precede this gather's, and
  // its error fails the epoch with these results unapplied.
  return FoldBroadcast(broadcast, stats);
}

common::Status DistributedTrainer::ReduceBatch(Batch* batch,
                                               EpochStats* stats,
                                               double* total_nnz) {
  // Per-entity counters are published here, on the driver, with the
  // scale factors the stats use, so labeled slices reconcile with
  // EpochStats exactly (see EntityMetrics in trainer.h).
  const int servers = cluster_.num_servers;
  const int active_workers = batch->active_workers();
  double batch_retry_seconds = 0.0;
  uint64_t batch_bytes_up = 0;          // This batch's gather traffic.
  uint64_t batch_retransmit_bytes = 0;  // Retry amplification, this batch.
  uint64_t batch_retries = 0;
  std::vector<double> shard_gather_seconds(servers, 0.0);
  for (int i = 0; i < active_workers; ++i) {
    const WorkerResult& r = batch->results[i];
    const int w = batch->ids[i];  // Metric slots are per worker id.
    SKETCHML_RETURN_IF_ERROR(r.status);
    if (r.contributes) ++batch->contributing;
    *total_nnz += static_cast<double>(r.nnz);
    batch->compute_sum += r.compute_seconds;
    batch->encode_sum += r.encode_seconds;
    batch->decode_sum += r.decode_seconds;
    double push_seconds = 0.0;  // The worker's total modeled link time.
    for (int s = 0; s < servers; ++s) {
      if (r.shards[s].bytes == 0) continue;
      ++stats->messages;
      stats->bytes_up += r.shards[s].bytes;
      batch_bytes_up += r.shards[s].bytes;
      shard_gather_seconds[s] += r.shards[s].link_seconds;
      push_seconds += r.shards[s].link_seconds;
    }
    stats->injected_faults += r.injected_drops + r.injected_corruptions +
                              (r.straggled ? 1 : 0) + (r.crashed ? 1 : 0);
    stats->retries += r.retries;
    stats->retransmit_bytes += r.retransmit_bytes;
    batch_retries += r.retries;
    batch_retransmit_bytes += r.retransmit_bytes;
    stats->lost_messages += r.lost;
    batch_retry_seconds += r.retry_seconds;
    if (fault_metrics_.enabled) {
      // Only what happened: a count of 0 adds nothing.
      const auto add = [](const obs::Counter& counter, uint64_t count) {
        if (count > 0) counter.Add(static_cast<double>(count));
      };
      const uint64_t injected[FaultMetrics::kWorkerKinds] = {
          r.injected_drops, r.injected_corruptions, r.straggled, r.crashed};
      for (int kind = 0; kind < FaultMetrics::kWorkerKinds; ++kind) {
        add(fault_metrics_.injected[kind][w], injected[kind]);
      }
      add(fault_metrics_.retries[w], r.retries);
      add(fault_metrics_.retransmit_bytes[w], r.retransmit_bytes);
      add(fault_metrics_.lost_messages, r.lost);
    }
    if (metrics_.enabled) {
      const double compute =
          r.compute_seconds / active_workers * cluster_.compute_scale;
      const double encode =
          r.encode_seconds / active_workers * cluster_.codec_scale;
      metrics_.worker_compute[w].Add(compute);
      metrics_.worker_encode[w].Add(encode);
      // Per-batch latency distributions, recorded from this driver
      // thread only (single writer => snapshots identical across
      // --threads).
      sketch_metrics_.worker_compute[w].Record(compute);
      sketch_metrics_.worker_encode[w].Record(encode);
      sketch_metrics_.worker_push[w].Record(push_seconds);
      metrics_.worker_recovery_err[w].Add(r.recovery_error_l1);
      metrics_.worker_recovery_ref[w].Add(r.recovery_ref_l1);
      for (int s = 0; s < servers; ++s) {
        if (r.shards[s].decode_seconds > 0.0) {
          metrics_.server_decode[s].Add(r.shards[s].decode_seconds *
                                        cluster_.codec_scale);
        }
        if (r.shards[s].bytes > 0) {
          metrics_.server_bytes[s].Add(static_cast<double>(r.shards[s].bytes));
        }
      }
    }
  }
  // Server-shard stalls: a stalled server delays the gather in flight
  // on its link (no effect on a link with no traffic this batch).
  for (int s = 0; s < servers; ++s) {
    if (shard_gather_seconds[s] > 0.0 &&
        injector_.ServerStalled(batch->index, s)) {
      shard_gather_seconds[s] += cluster_.faults.stall_seconds;
      ++stats->injected_faults;
      if (fault_metrics_.enabled) {
        fault_metrics_.injected_stall[s].Increment();
      }
    }
  }
  // Below quorum the epoch fails with a typed status; a quorate batch
  // with losses applies the survivors' mean (ApplyUpdate). Quorum counts
  // only the workers this batch sent work to.
  const int contributing = batch->contributing;
  const int quorum = std::min(cluster_.faults.min_quorum, active_workers);
  if (contributing < quorum) {
    return common::Status::Unavailable(
        "quorum failure at batch " + std::to_string(batch->index) + ": " +
        std::to_string(contributing) + " of " +
        std::to_string(active_workers) + " workers delivered (min_quorum=" +
        std::to_string(cluster_.faults.min_quorum) + ")");
  }
  if (contributing < active_workers) ++stats->degraded_batches;
  if (fault_metrics_.enabled) {
    fault_metrics_.quorum.Set(static_cast<double>(contributing));
  }
  if (obs::TracingEnabled() && batch_retry_seconds > 0.0) {
    // Modeled retransmit + backoff time, under the still-open batch span
    // so the analyzer charges retry amplification to its batch.
    obs::EmitSpan("network", "retry", obs::NowNs(),
                  static_cast<uint64_t>(batch_retry_seconds * 1e9),
                  {{"attempt", static_cast<double>(batch_retries)},
                   {"bytes", static_cast<double>(batch_retransmit_bytes)}});
  }

  // Gather happens in parallel across server links: the slowest shard
  // bounds the phase.
  const double gather_seconds = *std::max_element(
      shard_gather_seconds.begin(), shard_gather_seconds.end());
  stats->network_seconds += gather_seconds;
  if (metrics_.enabled) {
    for (int s = 0; s < servers; ++s) {
      if (shard_gather_seconds[s] > 0.0) {
        metrics_.server_gather[s].Add(shard_gather_seconds[s]);
      }
    }
    if (gather_seconds > 0.0) metrics_.driver_network.Add(gather_seconds);
  }
  if (obs::TracingEnabled() && gather_seconds > 0.0) {
    // Modeled, not measured: the span's duration is what NetworkModel
    // says the gather would have taken on the simulated links.
    obs::EmitSpan("network", "gather", obs::NowNs(),
                  static_cast<uint64_t>(gather_seconds * 1e9),
                  {{"bytes", static_cast<double>(batch_bytes_up)}});
  }
  return batch->key_error;
}

common::Status DistributedTrainer::ApplyUpdate(Batch* batch,
                                               EpochStats* stats) {
  // The drain yields the folded aggregate in ascending key order.
  common::Stopwatch watch;
  common::SparseGradient& mean_grad = batch->mean_grad;
  {
    obs::TraceSpan aggregate_span("trainer", "aggregate");
    // A degraded batch averages over its surviving workers only (the
    // quorum check guarantees at least one).
    const double inv_workers = 1.0 / static_cast<double>(batch->contributing);
    mean_grad.reserve(aggregate_.touched());
    // A decoded inf/NaN would poison the weights (Adam turns inf into
    // NaN); the drain still runs to the end so the accumulator is clean.
    std::optional<uint64_t> non_finite_key;
    aggregate_.Drain([&](uint64_t key, double sum) {
      if (!std::isfinite(sum) && !non_finite_key) non_finite_key = key;
      mean_grad.push_back({key, sum * inv_workers});
    });
    if (non_finite_key) {
      return common::Status::CorruptedData(
          "aggregate for key " + std::to_string(*non_finite_key) +
          " is not finite at batch " + std::to_string(batch->index));
    }
  }
  {
    obs::TraceSpan update_span("trainer", "update");
    optimizer_->Apply(mean_grad);
  }
  const double update_elapsed =
      (batch->fold_seconds + watch.Restart()) * cluster_.codec_scale;
  stats->update_seconds += update_elapsed;
  if (metrics_.enabled && update_elapsed > 0.0) {
    metrics_.driver_update.Add(update_elapsed);
  }
  // Feed the owning shards' mergeable state before the broadcast moves
  // mean_grad: serial, so the sketches are a function of the updates.
  if (membership_active_) UpdateShardState(mean_grad);

  // Workers compute in parallel: charge the mean per worker.
  stats->compute_seconds += batch->compute_sum / batch->active_workers() *
                            cluster_.compute_scale;
  ++stats->num_batches;
  return common::Status::Ok();
}

common::Status DistributedTrainer::FinishEpoch(double total_nnz,
                                               PendingBroadcast* broadcast,
                                               EpochStats* stats) {
  stats->avg_gradient_nnz =
      stats->messages > 0 ? total_nnz / static_cast<double>(stats->messages)
                          : 0.0;
  stats->train_loss = ml::ComputeMeanLoss(*loss_, optimizer_->weights(),
                                          *train_, config_.lambda, pool_.get());
  if (test_ != nullptr && config_.evaluate_test_loss) {
    stats->test_loss = ml::ComputeMeanLoss(*loss_, optimizer_->weights(),
                                           *test_, 0.0, pool_.get());
  }
  // The last broadcast overlapped the loss evaluation, whose pool chunks
  // only read the weights.
  SKETCHML_RETURN_IF_ERROR(FoldBroadcast(broadcast, stats));
  simulated_seconds_ += stats->TotalSeconds();

  // Merge each worker's telemetry window tail into the cluster-wide slot
  // (KLL mergeability), then retire the windows. Payload bytes count in
  // telemetry/* only, never in the modeled network.
  if (metrics_.enabled) {
    MergeTelemetryTails(0, directory_.universe(), /*drain=*/false);
    obs::SketchHistogramRegistry::Global().AdvanceWindows();
  }

  if (membership_metrics_.churn) {
    membership_metrics_.active_workers.Set(
        static_cast<double>(directory_.active().size()));
    membership_metrics_.active_servers.Set(
        static_cast<double>(active_servers_));
  }
  // Epoch checkpoint: seal the full training state so a later
  // below-quorum attempt can roll back here instead of failing the run.
  if (checkpoints_enabled_ &&
      epochs_run_ % cluster_.membership.checkpoint_every == 0) {
    SKETCHML_RETURN_IF_ERROR(SaveCheckpoint(&checkpoint_));
    stats->checkpoint_bytes = checkpoint_.size();
    if (membership_metrics_.checkpoints) {
      membership_metrics_.checkpoint_bytes.Add(
          static_cast<double>(checkpoint_.size()));
    }
  }

  // Rollbacks since the last reported epoch, read only at the end of a
  // successful attempt, so a chain of failed retries all count here.
  stats->rollbacks = pending_rollbacks_;
  pending_rollbacks_ = 0;
  if (stats->rollbacks > 0 && membership_metrics_.checkpoints) {
    membership_metrics_.rollbacks.Add(static_cast<double>(stats->rollbacks));
  }

  PublishEpochStats(*stats);
  return common::Status::Ok();
}

DistributedTrainer::PendingBroadcast DistributedTrainer::LaunchBroadcast(
    common::SparseGradient update, int active_workers,
    double worker_encode_seconds, double worker_decode_seconds) {
  PendingBroadcast pending;
  pending.active_workers = active_workers;
  pending.worker_encode_seconds = worker_encode_seconds;
  pending.worker_decode_seconds = worker_decode_seconds;
  // Re-encode the update with the same codec. With sharding each server
  // broadcasts its key range; shards broadcast in parallel so the slowest
  // bounds the phase. The task adopts the launching context (the batch
  // span when sampled, else the epoch span), as the serial loop's spans
  // had it for a parent.
  auto task = [this, update = std::move(update), active_workers,
               ctx = obs::CurrentSpanContext()]() mutable {
    obs::TraceContextScope scope(ctx);
    const int servers = cluster_.num_servers;
    BroadcastResult r;
    {
      obs::TraceSpan broadcast_span("trainer", "broadcast");
      const std::vector<common::SparseGradient> shards =
          SplitByShard(std::move(update));
      common::Stopwatch watch;
      for (int s = 0; s < servers; ++s) {
        if (shards[s].empty()) continue;
        watch.Restart();
        compress::EncodedGradient msg;
        r.status = codec_->Encode(shards[s], &msg);
        if (!r.status.ok()) return r;
        r.encode_seconds += watch.Restart() / servers;
        r.bytes_down += static_cast<uint64_t>(msg.size()) * active_workers;
        // Spark-style torrent broadcast: the server emits the update once
        // and executors propagate copies peer-to-peer in parallel, so the
        // critical path is ~2 link traversals regardless of W (the gather
        // path, by contrast, really does serialize W messages through each
        // server's NIC).
        r.network_seconds =
            std::max(r.network_seconds,
                     2.0 * cluster_.network.TransferSeconds(msg.size()));
        watch.Restart();
        common::SparseGradient worker_copy;
        r.status = codec_->Decode(msg, &worker_copy);
        if (!r.status.ok()) return r;
        r.decode_seconds += watch.Restart();  // One decode: workers parallel.
      }
    }
    if (obs::TracingEnabled() && r.network_seconds > 0.0) {
      // Modeled torrent-broadcast time, same convention as "gather".
      obs::EmitSpan("network", "broadcast", obs::NowNs(),
                    static_cast<uint64_t>(r.network_seconds * 1e9),
                    {{"bytes", static_cast<double>(r.bytes_down)}});
    }
    return r;
  };
  pending.task = pool_ != nullptr ? pool_->Submit(std::move(task))
                                  : common::Deferred(std::move(task));
  return pending;
}

common::Status DistributedTrainer::FoldBroadcast(PendingBroadcast* pending,
                                                 EpochStats* stats) {
  if (!pending->task.valid()) return common::Status::Ok();
  const BroadcastResult r = pending->task.Get();
  SKETCHML_RETURN_IF_ERROR(r.status);
  stats->bytes_down += r.bytes_down;
  stats->network_seconds += r.network_seconds;
  if (metrics_.enabled) {
    // The broadcast encode/decode run on the driver lane; charge them with
    // the same factors as the stats below so
    //   encode = Σ worker{encode} + driver{encode}   (and likewise
    // decode over server + driver slices) reconciles exactly.
    if (r.encode_seconds > 0.0) {
      metrics_.driver_encode.Add(r.encode_seconds / pending->active_workers *
                                 cluster_.codec_scale);
    }
    if (r.decode_seconds > 0.0) {
      metrics_.driver_decode.Add(r.decode_seconds * cluster_.codec_scale);
    }
    if (r.network_seconds > 0.0) metrics_.driver_network.Add(r.network_seconds);
  }
  // Workers encode in parallel: charge the mean per worker.
  stats->encode_seconds +=
      (pending->worker_encode_seconds + r.encode_seconds) /
      pending->active_workers * cluster_.codec_scale;
  stats->decode_seconds +=
      (pending->worker_decode_seconds + r.decode_seconds) *
      cluster_.codec_scale;
  return common::Status::Ok();
}

common::Result<EpochStats> DistributedTrainer::RunEpoch() {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  int attempts = 0;
  while (true) {
    common::Result<EpochStats> result = RunEpochAttempt();
    if (result.ok()) return result;
    // Only a quorum failure is recoverable, and only while a sealed
    // checkpoint exists and the per-epoch retry budget holds out.
    if (result.status().code() != common::StatusCode::kUnavailable ||
        checkpoint_.empty() || attempts >= cluster_.membership.max_rollbacks) {
      return result;
    }
    ++attempts;
    ++rollbacks_used_;
    ++pending_rollbacks_;
    // Roll the model and every codec lane back to the last epoch
    // boundary. The global batch counter is NOT rewound (for_rollback):
    // the retry draws fresh fault/membership decisions instead of
    // replaying the exact failure that killed this attempt. The counter
    // stopped *on* the failed batch's index (the failure aborts before
    // the end-of-batch increment), so step past it — otherwise the
    // retry's first batch would redraw the very decisions that just
    // failed quorum, and every retry would die at the same index.
    ++batches_run_;
    SKETCHML_RETURN_IF_ERROR(
        RestoreFromBlob(checkpoint_, /*for_rollback=*/true));
    SKETCHML_LOG(Warning) << "epoch " << epochs_run_ + 1
                          << ": rolled back to checkpoint (retry " << attempts
                          << " of " << cluster_.membership.max_rollbacks
                          << "): " << result.status().message();
  }
}

void DistributedTrainer::ApplyMembershipEvent(const MembershipEvent& event,
                                              EpochStats* stats) {
  switch (event.kind) {
    case MembershipEvent::kJoin: {
      ++stats->joins;
      if (membership_metrics_.churn) membership_metrics_.joins.Increment();
      // Warm start, step 1: the joiner pulls the current dense weights
      // over the wire — real protocol traffic, charged to the network.
      const uint64_t sync_bytes =
          static_cast<uint64_t>(optimizer_->weights().size()) * sizeof(double);
      stats->sync_bytes += sync_bytes;
      stats->network_seconds += cluster_.network.TransferSeconds(sync_bytes);
      if (membership_metrics_.churn) {
        membership_metrics_.sync_bytes.Add(static_cast<double>(sync_bytes));
      }
      // Warm start, step 2: adopt the oldest escrowed codec-lane state
      // (error-feedback residual + stream position) banked by an earlier
      // leaver, so accumulated correction signal survives churn instead
      // of resetting to zero.
      if (!residual_escrow_.empty()) {
        const std::vector<uint8_t> blob = std::move(residual_escrow_.front());
        residual_escrow_.pop_front();
        common::ByteReader reader(blob);
        const common::Status restored =
            worker_codecs_[event.worker]->RestoreState(&reader);
        if (restored.ok()) {
          ChargeHandoff(blob.size(), stats);
        } else {
          SKETCHML_LOG(Warning)
              << "worker " << event.worker
              << " rejected escrowed codec state: " << restored.ToString();
        }
      }
      break;
    }
    case MembershipEvent::kLeave:
    case MembershipEvent::kDepart: {
      if (event.kind == MembershipEvent::kLeave) {
        ++stats->leaves;
        if (membership_metrics_.churn) membership_metrics_.leaves.Increment();
      } else {
        ++stats->departs;
        if (membership_metrics_.churn) membership_metrics_.departs.Increment();
      }
      // Graceful handoff, step 1: bank the leaver's codec-lane state
      // (residual + RNG position) in the escrow for a future joiner.
      // The blob crosses the wire to the driver, so it is charged.
      common::ByteWriter writer;
      worker_codecs_[event.worker]->SaveState(&writer);
      std::vector<uint8_t> blob = writer.TakeBuffer();
      if (!blob.empty()) {
        ChargeHandoff(blob.size(), stats);
        residual_escrow_.push_back(std::move(blob));
      }
      // Graceful handoff, step 2: drain the leaver's labeled telemetry
      // tail into the cluster-wide slots so its latency samples survive
      // the departure (the epoch-boundary merge would otherwise lose
      // whatever the window accumulated since the last boundary).
      // Telemetry bytes follow the sketch-metrics convention: counted
      // in telemetry/* only, never charged to the NetworkModel.
      if (metrics_.enabled) {
        MergeTelemetryTails(event.worker, event.worker + 1, /*drain=*/true);
      }
      break;
    }
  }
}

common::Status DistributedTrainer::ReconfigureShards(EpochStats* stats) {
  const int target =
      ActiveServerCount(cluster_.num_servers,
                        static_cast<int>(directory_.active().size()),
                        initial_workers_);
  if (target == active_servers_) return common::Status::Ok();

  // Serialize a shard's mergeable state exactly as it would cross the
  // wire: KLL value sketch then MinMax key cache, one framed blob.
  const auto serialize_shard = [this](int s) {
    common::ByteWriter writer(shard_values_[s].SerializedSize() +
                              shard_keys_[s].SerializedSize());
    shard_values_[s].Serialize(&writer);
    shard_keys_[s].Serialize(&writer);
    return writer.TakeBuffer();
  };
  // Deserialize a transferred blob back into (values, keys) and merge it
  // into the destination shard — the round-trip is deliberate: the
  // destination only ever sees what survived serialization, exactly like
  // a real shard-to-shard transfer.
  const auto merge_blob = [this](const std::vector<uint8_t>& blob,
                                 int dest) -> common::Status {
    common::ByteReader reader(blob);
    sketch::KllSketch values(/*k=*/256, kShardSketchSeed);
    SKETCHML_RETURN_IF_ERROR(
        sketch::KllSketch::Deserialize(&reader, &values, kShardSketchSeed));
    values.SetInstrumented(false);
    sketch::MinMaxSketch keys(kShardKeyRows, kShardKeyCols, kShardSketchSeed);
    SKETCHML_RETURN_IF_ERROR(sketch::MinMaxSketch::Deserialize(&reader, &keys));
    shard_values_[dest].Merge(values);
    return shard_keys_[dest].Merge(keys);
  };
  if (target < active_servers_) {
    // Scale-down: each retiring shard serializes its state and ships it
    // to a surviving shard, which merges it (mergeability makes this a
    // transfer, not a rebuild). State is conserved: nothing the retiring
    // shards learned is lost.
    for (int s = target; s < active_servers_; ++s) {
      const std::vector<uint8_t> blob = serialize_shard(s);
      ChargeHandoff(blob.size(), stats);
      SKETCHML_RETURN_IF_ERROR(merge_blob(blob, s % target));
      // Reset the retired shard so a later scale-up starts it fresh.
      shard_values_[s] = sketch::KllSketch(/*k=*/256, kShardSketchSeed);
      shard_values_[s].SetInstrumented(false);
      shard_keys_[s] =
          sketch::MinMaxSketch(kShardKeyRows, kShardKeyCols, kShardSketchSeed);
    }
  } else {
    // Scale-up: each new shard bootstraps from an existing one (the
    // consistent-hash ring moves only boundary keys to it, so the donor's
    // state is a superset of what the new shard will serve).
    for (int s = active_servers_; s < target; ++s) {
      const std::vector<uint8_t> blob = serialize_shard(s % active_servers_);
      ChargeHandoff(blob.size(), stats);
      SKETCHML_RETURN_IF_ERROR(merge_blob(blob, s));
    }
  }
  active_servers_ = target;
  ring_.Rebuild(target);
  ++stats->reconfigurations;
  if (membership_metrics_.churn) {
    membership_metrics_.reconfigurations.Increment();
  }
  return common::Status::Ok();
}

void DistributedTrainer::ChargeHandoff(size_t bytes, EpochStats* stats) {
  stats->handoff_bytes += bytes;
  stats->network_seconds +=
      cluster_.network.TransferSeconds(static_cast<double>(bytes));
  if (membership_metrics_.churn) {
    membership_metrics_.handoff_bytes.Add(static_cast<double>(bytes));
  }
}

void DistributedTrainer::UpdateShardState(const common::SparseGradient& grad) {
  for (const auto& pair : grad) {
    const int s = ring_.ShardOf(pair.key);
    shard_values_[s].Update(std::abs(pair.value));
    shard_keys_[s].Insert(pair.key, MagnitudeBucket(pair.value));
  }
}

int DistributedTrainer::ShardOf(uint64_t key) const {
  if (membership_active_) return ring_.ShardOf(key);
  const uint64_t dim = std::max<uint64_t>(1, train_->dim());
  return static_cast<int>(key * static_cast<uint64_t>(cluster_.num_servers) /
                          dim);
}

std::vector<common::SparseGradient> DistributedTrainer::SplitByShard(
    common::SparseGradient grad) const {
  const int servers = cluster_.num_servers;
  std::vector<common::SparseGradient> pieces(servers);
  if (servers == 1) {
    pieces[0] = std::move(grad);
    return pieces;
  }
  const size_t hint = grad.size() / static_cast<size_t>(servers) + 1;
  for (auto& piece : pieces) piece.reserve(hint);
  for (const auto& pair : grad) {
    const int dest = ShardOf(pair.key);
    // A key >= dim would compute a shard past the last server and
    // corrupt the neighbouring vector silently.
    SKETCHML_DCHECK_GE(dest, 0);
    SKETCHML_DCHECK_LT(dest, servers)
        << "gradient key " << pair.key << " outside model dim "
        << train_->dim();
    pieces[dest].push_back(pair);
  }
  return pieces;
}

void DistributedTrainer::MergeTelemetryTails(int first_worker,
                                             int end_worker, bool drain) {
  auto& sketches = obs::SketchHistogramRegistry::Global();
  const struct {
    const std::vector<obs::SketchHistogram>* workers;
    const obs::SketchHistogram* cluster;
  } lanes[] = {
      {&sketch_metrics_.worker_compute, &sketch_metrics_.cluster_compute},
      {&sketch_metrics_.worker_encode, &sketch_metrics_.cluster_encode},
      {&sketch_metrics_.worker_push, &sketch_metrics_.cluster_push},
  };
  for (const auto& lane : lanes) {
    for (int w = first_worker; w < end_worker; ++w) {
      const obs::SketchHistogram& worker_sketch = (*lane.workers)[w];
      const std::vector<uint8_t> payload =
          drain ? sketches.DrainTail(worker_sketch)
                : sketches.SerializeTail(worker_sketch);
      if (payload.empty()) continue;
      sketch_metrics_.merges.Increment();
      sketch_metrics_.merge_bytes.Add(static_cast<double>(payload.size()));
      const common::Status merged = sketches.MergeSerialized(
          *lane.cluster, payload.data(), payload.size());
      if (!merged.ok()) {
        SKETCHML_LOG(Warning)
            << "telemetry sketch merge failed: " << merged.ToString();
      }
    }
  }
}

void DistributedTrainer::BuildCheckpointPayload(
    std::vector<uint8_t>* payload) const {
  common::ByteWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(epochs_run_));
  writer.WriteVarint(batches_run_);
  writer.WriteDouble(simulated_seconds_);
  // Optimizer kind byte: restore validates it against this trainer's
  // config instead of mis-parsing an SGD blob as Adam state.
  writer.WriteU8(config_.use_adam ? 1 : 0);
  optimizer_->SaveState(&writer);
  // Codec lanes, each length-prefixed so a lane that saves nothing (a
  // stateless codec) round-trips as an empty blob.
  writer.WriteVarint(static_cast<uint64_t>(worker_codecs_.size()));
  const auto write_lane = [&writer](const compress::GradientCodec& codec) {
    common::ByteWriter lane;
    codec.SaveState(&lane);
    const std::vector<uint8_t> blob = lane.TakeBuffer();
    writer.WriteVarint(static_cast<uint64_t>(blob.size()));
    writer.WriteBytes(blob);
  };
  for (const auto& codec : worker_codecs_) write_lane(*codec);
  write_lane(*codec_);  // Driver/broadcast lane.
  *payload = writer.TakeBuffer();
}

common::Status DistributedTrainer::SaveCheckpoint(
    std::vector<uint8_t>* out) const {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  std::vector<uint8_t> payload;
  BuildCheckpointPayload(&payload);
  SealCheckpoint(payload, out);
  return common::Status::Ok();
}

common::Status DistributedTrainer::RestoreCheckpoint(
    const std::vector<uint8_t>& checkpoint) {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  return RestoreFromBlob(checkpoint, /*for_rollback=*/false);
}

common::Status DistributedTrainer::RestoreFromBlob(
    const std::vector<uint8_t>& checkpoint, bool for_rollback) {
  std::vector<uint8_t> payload;
  SKETCHML_RETURN_IF_ERROR(OpenCheckpoint(checkpoint, &payload));
  common::ByteReader reader(payload);
  uint64_t epochs = 0;
  uint64_t batches = 0;
  double simulated = 0.0;
  uint8_t optimizer_kind = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&epochs));
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&batches));
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&simulated));
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&optimizer_kind));
  if (epochs >= static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return common::Status::CorruptedData("checkpoint epoch count out of range");
  }
  if ((optimizer_kind != 0) != config_.use_adam) {
    return common::Status::CorruptedData(
        "checkpoint optimizer kind does not match this trainer's config");
  }
  // Every section parses into scratch before anything is applied: the
  // optimizer into a fresh twin, each codec lane into a fork of the
  // driver lane (whether a lane blob parses depends on the codec's shape,
  // not its seed lane; see GradientCodec::RestoreState).
  std::unique_ptr<ml::Optimizer> optimizer =
      MakeOptimizer(optimizer_->weights().size(), config_);
  SKETCHML_RETURN_IF_ERROR(optimizer->RestoreState(&reader));
  uint64_t lanes = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&lanes));
  if (lanes != worker_codecs_.size()) {
    return common::Status::CorruptedData(
        "checkpoint codec lane count (" + std::to_string(lanes) +
        ") does not match this trainer (" +
        std::to_string(worker_codecs_.size()) + ")");
  }
  // Worker lanes, then the driver/broadcast lane, each length-prefixed.
  std::vector<std::span<const uint8_t>> blobs(worker_codecs_.size() + 1);
  for (std::span<const uint8_t>& blob : blobs) {
    uint64_t size = 0;
    SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&size));
    if (size > reader.remaining()) {
      return common::Status::CorruptedData("checkpoint codec lane truncated");
    }
    SKETCHML_RETURN_IF_ERROR(reader.ReadSpan(size, &blob));
    common::ByteReader lane(blob.data(), blob.size());
    SKETCHML_RETURN_IF_ERROR(codec_->Fork(0)->RestoreState(&lane));
    if (!lane.AtEnd()) {
      return common::Status::CorruptedData("checkpoint codec lane too long");
    }
  }
  if (!reader.AtEnd()) {
    return common::Status::CorruptedData("checkpoint has trailing bytes");
  }

  // Apply: a fork of each lane's shape has just parsed its blob.
  optimizer_ = std::move(optimizer);
  for (size_t i = 0; i < blobs.size(); ++i) {
    common::ByteReader lane(blobs[i].data(), blobs[i].size());
    const common::Status restored =
        (i < worker_codecs_.size() ? worker_codecs_[i] : codec_)
            ->RestoreState(&lane);
    SKETCHML_CHECK(restored.ok()) << restored.ToString();
  }
  // A rollback rewinds the epoch number (the retried epoch keeps its
  // index) but NOT the monotonic batch counter or the accumulated
  // simulated time — the retry must draw fresh fault/membership decisions.
  epochs_run_ = static_cast<int>(epochs);
  if (!for_rollback) {
    batches_run_ = batches;
    simulated_seconds_ = simulated;
  }
  return common::Status::Ok();
}

common::Result<std::vector<EpochStats>> DistributedTrainer::Run(int epochs) {
  std::vector<EpochStats> all;
  all.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    SKETCHML_ASSIGN_OR_RETURN(EpochStats stats, RunEpoch());
    all.push_back(stats);
  }
  return all;
}

}  // namespace sketchml::dist
