#include "dist/stats.h"

#include <cstdio>

#include "common/obs.h"

namespace sketchml::dist {

std::string EpochStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "epoch %2d: %.2fs (cpu %.2fs net %.2fs) up %.2fMB "
                "down %.2fMB loss %.5f",
                epoch, TotalSeconds(),
                compute_seconds + encode_seconds + decode_seconds +
                    update_seconds,
                network_seconds, bytes_up / 1e6, bytes_down / 1e6,
                train_loss);
  std::string out = buf;
  if (injected_faults > 0 || retries > 0 || degraded_batches > 0) {
    std::snprintf(buf, sizeof(buf),
                  " faults=%llu retries=%llu lost=%llu degraded=%llu",
                  static_cast<unsigned long long>(injected_faults),
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(lost_messages),
                  static_cast<unsigned long long>(degraded_batches));
    out += buf;
  }
  if (joins > 0 || leaves > 0 || departs > 0 || reconfigurations > 0 ||
      rollbacks > 0) {
    std::snprintf(buf, sizeof(buf),
                  " joins=%llu leaves=%llu departs=%llu reconfigs=%llu "
                  "rollbacks=%llu",
                  static_cast<unsigned long long>(joins),
                  static_cast<unsigned long long>(leaves),
                  static_cast<unsigned long long>(departs),
                  static_cast<unsigned long long>(reconfigurations),
                  static_cast<unsigned long long>(rollbacks));
    out += buf;
  }
  return out;
}

EpochStats Aggregate(const std::vector<EpochStats>& stats) {
  EpochStats total;
  for (const auto& s : stats) {
    total.compute_seconds += s.compute_seconds;
    total.encode_seconds += s.encode_seconds;
    total.decode_seconds += s.decode_seconds;
    total.update_seconds += s.update_seconds;
    total.network_seconds += s.network_seconds;
    total.bytes_up += s.bytes_up;
    total.bytes_down += s.bytes_down;
    total.messages += s.messages;
    total.num_batches += s.num_batches;
    total.injected_faults += s.injected_faults;
    total.retries += s.retries;
    total.retransmit_bytes += s.retransmit_bytes;
    total.lost_messages += s.lost_messages;
    total.degraded_batches += s.degraded_batches;
    total.joins += s.joins;
    total.leaves += s.leaves;
    total.departs += s.departs;
    total.handoff_bytes += s.handoff_bytes;
    total.sync_bytes += s.sync_bytes;
    total.reconfigurations += s.reconfigurations;
    total.rollbacks += s.rollbacks;
    total.checkpoint_bytes += s.checkpoint_bytes;
  }
  if (!stats.empty()) {
    total.epoch = stats.back().epoch;
    total.train_loss = stats.back().train_loss;
    total.test_loss = stats.back().test_loss;
    double nnz = 0.0;
    for (const auto& s : stats) nnz += s.avg_gradient_nnz;
    total.avg_gradient_nnz = nnz / static_cast<double>(stats.size());
  }
  return total;
}

namespace {

/// Handles for the trainer's registry slice, bound once per process.
struct TrainerMetrics {
  obs::Counter compute_seconds;
  obs::Counter encode_seconds;
  obs::Counter decode_seconds;
  obs::Counter update_seconds;
  obs::Counter network_seconds;
  obs::Counter bytes_up;
  obs::Counter bytes_down;
  obs::Counter messages;
  obs::Counter num_batches;
  obs::Counter epochs;
  obs::Counter degraded_batches;
  obs::Gauge epoch;
  obs::Gauge avg_gradient_nnz;
  obs::Gauge train_loss;
  obs::Gauge test_loss;

  static const TrainerMetrics& Get() {
    static const TrainerMetrics* metrics = [] {
      // NOLINTNEXTLINE(sketchml-naked-new): leaked singleton.
      auto* m = new TrainerMetrics;
      auto& registry = obs::MetricsRegistry::Global();
      m->compute_seconds = registry.GetCounter("trainer/compute_seconds");
      m->encode_seconds = registry.GetCounter("trainer/encode_seconds");
      m->decode_seconds = registry.GetCounter("trainer/decode_seconds");
      m->update_seconds = registry.GetCounter("trainer/update_seconds");
      m->network_seconds = registry.GetCounter("trainer/network_seconds");
      m->bytes_up = registry.GetCounter("trainer/bytes_up");
      m->bytes_down = registry.GetCounter("trainer/bytes_down");
      m->messages = registry.GetCounter("trainer/messages");
      m->num_batches = registry.GetCounter("trainer/num_batches");
      m->epochs = registry.GetCounter("trainer/epochs");
      m->degraded_batches = registry.GetCounter("trainer/degraded_batches");
      m->epoch = registry.GetGauge("trainer/epoch");
      m->avg_gradient_nnz = registry.GetGauge("trainer/avg_gradient_nnz");
      m->train_loss = registry.GetGauge("trainer/train_loss");
      m->test_loss = registry.GetGauge("trainer/test_loss");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

void PublishEpochStats(const EpochStats& stats) {
  if (!obs::MetricsEnabled()) return;
  const TrainerMetrics& m = TrainerMetrics::Get();
  m.compute_seconds.Add(stats.compute_seconds);
  m.encode_seconds.Add(stats.encode_seconds);
  m.decode_seconds.Add(stats.decode_seconds);
  m.update_seconds.Add(stats.update_seconds);
  m.network_seconds.Add(stats.network_seconds);
  m.bytes_up.Add(static_cast<double>(stats.bytes_up));
  m.bytes_down.Add(static_cast<double>(stats.bytes_down));
  m.messages.Add(static_cast<double>(stats.messages));
  m.num_batches.Add(static_cast<double>(stats.num_batches));
  // Guarded so fault-free runs register no fault counters: the metrics
  // dump, series files, and the golden regression snapshot stay
  // bit-identical to a build without the fault layer.
  if (stats.degraded_batches > 0) {
    m.degraded_batches.Add(static_cast<double>(stats.degraded_batches));
  }
  m.epochs.Increment();
  m.epoch.Set(static_cast<double>(stats.epoch));
  m.avg_gradient_nnz.Set(stats.avg_gradient_nnz);
  m.train_loss.Set(stats.train_loss);
  m.test_loss.Set(stats.test_loss);
}

EpochStats EpochStatsFromMetrics(const obs::MetricsSnapshot& before,
                                 const obs::MetricsSnapshot& after) {
  const auto delta = [&](std::string_view name) {
    return after.CounterValueOf(name) - before.CounterValueOf(name);
  };
  EpochStats stats;
  stats.compute_seconds = delta("trainer/compute_seconds");
  stats.encode_seconds = delta("trainer/encode_seconds");
  stats.decode_seconds = delta("trainer/decode_seconds");
  stats.update_seconds = delta("trainer/update_seconds");
  stats.network_seconds = delta("trainer/network_seconds");
  stats.bytes_up = static_cast<uint64_t>(delta("trainer/bytes_up"));
  stats.bytes_down = static_cast<uint64_t>(delta("trainer/bytes_down"));
  stats.messages = static_cast<uint64_t>(delta("trainer/messages"));
  stats.num_batches = static_cast<size_t>(delta("trainer/num_batches"));
  stats.degraded_batches =
      static_cast<uint64_t>(delta("trainer/degraded_batches"));
  // The per-message fault counters are live-published by the trainer
  // with worker/server labels; roll them up across entities.
  const auto sum_delta = [&](std::string_view base) {
    return after.SumCounters(base, {}) - before.SumCounters(base, {});
  };
  stats.injected_faults = static_cast<uint64_t>(sum_delta("fault/injected"));
  stats.retries = static_cast<uint64_t>(sum_delta("net/retries"));
  stats.retransmit_bytes =
      static_cast<uint64_t>(sum_delta("net/retransmit_bytes"));
  stats.lost_messages = static_cast<uint64_t>(sum_delta("net/lost_messages"));
  // Membership event counters carry a kind label; filter per kind so the
  // per-kind split survives the rollup.
  const auto kind_delta = [&](const char* kind) {
    const obs::MetricLabels want = {{"kind", kind}};
    return after.SumCounters("membership/events", want) -
           before.SumCounters("membership/events", want);
  };
  stats.joins = static_cast<uint64_t>(kind_delta("join"));
  stats.leaves = static_cast<uint64_t>(kind_delta("leave"));
  stats.departs = static_cast<uint64_t>(kind_delta("depart"));
  stats.handoff_bytes =
      static_cast<uint64_t>(delta("membership/handoff_bytes"));
  stats.sync_bytes = static_cast<uint64_t>(delta("membership/sync_bytes"));
  stats.reconfigurations =
      static_cast<uint64_t>(delta("membership/reconfigurations"));
  stats.rollbacks = static_cast<uint64_t>(delta("membership/rollbacks"));
  stats.checkpoint_bytes =
      static_cast<uint64_t>(delta("membership/checkpoint_bytes"));
  stats.epoch = static_cast<int>(after.GaugeValueOf("trainer/epoch"));
  stats.avg_gradient_nnz = after.GaugeValueOf("trainer/avg_gradient_nnz");
  stats.train_loss = after.GaugeValueOf("trainer/train_loss");
  stats.test_loss = after.GaugeValueOf("trainer/test_loss");
  return stats;
}

}  // namespace sketchml::dist
