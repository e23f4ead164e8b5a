#ifndef SKETCHML_DIST_FAULT_H_
#define SKETCHML_DIST_FAULT_H_

#include <cstdint>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"

namespace sketchml::dist {

/// Declarative failure model for the distributed simulator (§4.1's
/// clusters are real and faulty: Cluster-2 is congested and shared,
/// executors straggle, and §3.4 stresses that one corrupted key corrupts
/// the model). Every fault class is a probability plus shared seed, so a
/// plan is *replayable*: the injected fault sequence is a pure function
/// of (seed, batch, worker, server, attempt) and therefore identical
/// run-to-run and at any thread count.
///
/// With every probability at zero (`Active()` false) no draw can fire:
/// the trainer's one gather loop sends each message once, unframed, and
/// its messages, stats, and losses are bit-identical to a build without
/// this layer.
struct FaultPlan {
  uint64_t seed = 1;  // Base seed for all injection decisions.

  // --- Message-level faults (worker -> server gather path) ---
  double drop_prob = 0.0;     // P(message attempt is lost in transit).
  double corrupt_prob = 0.0;  // P(message attempt arrives corrupted).

  // --- Worker-level faults ---
  double straggle_prob = 0.0;    // P(worker straggles for one batch).
  double straggle_factor = 4.0;  // Compute/encode delay multiplier.
  double crash_prob = 0.0;       // P(worker crashes at a batch)...
  int crash_batches = 3;         // ...staying down for this many batches.

  // --- Server-level faults ---
  double stall_prob = 0.0;      // P(server shard stalls for one batch).
  double stall_seconds = 0.05;  // Modeled seconds a stall adds to gather.

  // --- Recovery protocol ---
  int max_retries = 3;             // Retransmit budget per message.
  double backoff_seconds = 1e-3;   // First retry backoff; doubles each
                                   // attempt (exponential backoff).
  int min_quorum = 1;  // Minimum surviving workers to apply a batch
                       // (capped at the workers the batch sent work
                       // to); fewer fails the epoch with kUnavailable.

  /// True when any fault can actually fire. The trainer CRC-frames its
  /// gather messages only for active plans; an inactive plan's draws
  /// never fire, so it changes nothing.
  bool Active() const {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || straggle_prob > 0.0 ||
           crash_prob > 0.0 || stall_prob > 0.0;
  }
};

/// Rejects probabilities outside [0, 1], non-positive factors/durations,
/// and nonsensical retry/quorum budgets.
common::Status ValidateFaultPlan(const FaultPlan& plan);

/// Reads the shared `--fault-*` flags into a plan:
///
///   --fault-seed=N             injection seed (default 1)
///   --fault-drop=P             per-message drop probability
///   --fault-corrupt=P          per-message corruption probability
///   --fault-straggle=P         per-worker-batch straggler probability
///   --fault-straggle-factor=X  straggler delay multiplier (default 4)
///   --fault-crash=P            per-worker-batch crash probability
///   --fault-crash-batches=K    batches a crashed worker stays down
///   --fault-stall=P            per-server-batch stall probability
///   --fault-stall-seconds=S    modeled seconds per stall (default 0.05)
///   --fault-retries=N          retransmit budget per message (default 3)
///   --fault-backoff=S          base retry backoff seconds (default 1e-3)
///   --min-quorum=K             minimum surviving workers (default 1)
///
/// The returned plan is validated; all-defaults yields an inactive plan.
common::Result<FaultPlan> FaultPlanFromFlags(const common::FlagParser& flags);

/// Deterministic, stateless fault oracle over a `FaultPlan`.
///
/// Every decision hashes (plan seed, fault kind, batch, worker, server,
/// attempt) into a uniform [0, 1) draw — a counter-based RNG — so
/// decisions are independent of call order and thread interleaving, and
/// two runs with the same seed inject the *same* fault sequence. `batch`
/// is the trainer's global batch index (monotonic across epochs).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// True when message attempt `attempt` from `worker` to server shard
  /// `server` in `batch` is lost in transit.
  bool ShouldDrop(uint64_t batch, int worker, int server,
                  int attempt) const {
    return Draw(kDrop, batch, worker, server, attempt) < plan_.drop_prob;
  }

  /// True when the attempt arrives corrupted (use `Corrupt` to mangle
  /// the actual bytes so the receiver's CRC sees real damage).
  bool ShouldCorrupt(uint64_t batch, int worker, int server,
                     int attempt) const {
    return Draw(kCorrupt, batch, worker, server, attempt) <
           plan_.corrupt_prob;
  }

  /// Deterministically mangles `bytes` in place: odd draws truncate the
  /// message, even draws flip 1-4 bits at hashed positions. No-op on an
  /// empty buffer (nothing to corrupt; the length header already fails).
  void Corrupt(std::vector<uint8_t>* bytes, uint64_t batch, int worker,
               int server, int attempt) const;

  /// Compute/encode delay multiplier for `worker` in `batch`: 1.0
  /// normally, `straggle_factor` when the worker straggles.
  double StraggleFactor(uint64_t batch, int worker) const {
    if (Draw(kStraggle, batch, worker, 0, 0) < plan_.straggle_prob) {
      return plan_.straggle_factor;
    }
    return 1.0;
  }

  /// True when `worker` is down for `batch`: a crash fires at some batch
  /// b0 with `crash_prob` and keeps the worker down for `crash_batches`
  /// batches (b0 through b0 + crash_batches - 1).
  bool WorkerCrashed(uint64_t batch, int worker) const;

  /// True when server shard `server` stalls during `batch`'s gather.
  bool ServerStalled(uint64_t batch, int server) const {
    return Draw(kStall, batch, 0, server, 0) < plan_.stall_prob;
  }

  /// Exponential backoff before retry `attempt` (attempt >= 1):
  /// backoff_seconds * 2^(attempt-1).
  double BackoffSeconds(int attempt) const {
    return plan_.backoff_seconds * static_cast<double>(1ull << (attempt - 1));
  }

 private:
  enum Kind : uint64_t { kDrop = 1, kCorrupt, kStraggle, kCrash, kStall };

  /// Uniform [0, 1) draw for the decision keyed by the arguments.
  double Draw(Kind kind, uint64_t batch, int worker, int server,
              int attempt) const;

  FaultPlan plan_;
};

}  // namespace sketchml::dist

#endif  // SKETCHML_DIST_FAULT_H_
