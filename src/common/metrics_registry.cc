#include "common/metrics_registry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <ostream>

#include "common/json.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sketchml::obs {
namespace {

using common::AppendJsonNumber;
using common::AppendJsonString;

// Fixed shard capacities: per-thread slots are allocated once, so the
// hot path never resizes (and never takes a lock). Exhausting a table
// logs once and hands back an inert handle instead of aborting. Sized
// for labeled per-entity metrics: a 100-worker simulated cluster emits
// a few counters per worker plus per-codec-per-worker families.
constexpr int kMaxCounters = 4096;
constexpr int kMaxGauges = 256;
constexpr int kMaxHistograms = 512;

struct HistogramShard {
  std::atomic<uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

/// One thread's private slots. The owning thread is the only writer and
/// uses relaxed atomics so the snapshot reader can load concurrently
/// without locks or torn values.
struct Shard {
  std::array<std::atomic<double>, kMaxCounters> counters{};
  std::array<HistogramShard, kMaxHistograms> histograms{};
};

/// Totals carried over from threads that have exited.
struct RetiredTotals {
  std::array<double, kMaxCounters> counters{};
  struct Hist {
    uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  std::array<Hist, kMaxHistograms> histograms{};
};

struct Impl {
  mutable common::Mutex mutex;
  std::map<std::string, int, std::less<>> counter_ids
      SKETCHML_GUARDED_BY(mutex);
  std::map<std::string, int, std::less<>> gauge_ids SKETCHML_GUARDED_BY(mutex);
  std::map<std::string, int, std::less<>> histogram_ids
      SKETCHML_GUARDED_BY(mutex);
  std::vector<std::string> counter_names SKETCHML_GUARDED_BY(mutex);
  std::vector<std::string> gauge_names SKETCHML_GUARDED_BY(mutex);
  std::vector<std::string> histogram_names SKETCHML_GUARDED_BY(mutex);
  // Atomic slots written by single-writer handles; reads are lock-free.
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  std::vector<Shard*> live_shards SKETCHML_GUARDED_BY(mutex);
  RetiredTotals retired SKETCHML_GUARDED_BY(mutex);
};

Impl& GetImpl() {
  // NOLINTNEXTLINE(sketchml-naked-new): leaked on purpose.
  static Impl* impl = new Impl;  // Leaked: outlives thread-local dtors.
  return *impl;
}

void RetireShard(Shard* shard) {
  Impl& impl = GetImpl();
  common::MutexLock lock(impl.mutex);
  for (int i = 0; i < kMaxCounters; ++i) {
    impl.retired.counters[i] +=
        shard->counters[i].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kMaxHistograms; ++i) {
    const HistogramShard& h = shard->histograms[i];
    RetiredTotals::Hist& r = impl.retired.histograms[i];
    r.count += h.count.load(std::memory_order_relaxed);
    r.sum += h.sum.load(std::memory_order_relaxed);
    r.min = std::min(r.min, h.min.load(std::memory_order_relaxed));
    r.max = std::max(r.max, h.max.load(std::memory_order_relaxed));
  }
  impl.live_shards.erase(
      std::find(impl.live_shards.begin(), impl.live_shards.end(), shard));
  delete shard;  // NOLINT(sketchml-naked-new): end of TLS retire cycle.
}

struct TlsShard {
  Shard* shard = nullptr;
  ~TlsShard() {
    if (shard != nullptr) RetireShard(shard);
  }
};

Shard* ThisShard() {
  thread_local TlsShard tls;
  if (tls.shard == nullptr) {
    // NOLINTNEXTLINE(sketchml-naked-new): owned by the TLS retire cycle.
    auto* shard = new Shard;
    Impl& impl = GetImpl();
    common::MutexLock lock(impl.mutex);
    impl.live_shards.push_back(shard);
    tls.shard = shard;
  }
  return tls.shard;
}

/// Single-writer relaxed accumulate: the owning thread is the only
/// mutator, so load+store (no CAS) is race-free yet never torn for the
/// concurrent snapshot reader.
void RelaxedAdd(std::atomic<double>* slot, double delta) {
  slot->store(slot->load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

int Register(std::map<std::string, int, std::less<>>* ids,
             std::vector<std::string>* names, int capacity,
             std::string_view name) {
  Impl& impl = GetImpl();
  common::MutexLock lock(impl.mutex);
  const auto it = ids->find(name);
  if (it != ids->end()) return it->second;
  if (static_cast<int>(names->size()) >= capacity) {
    SKETCHML_LOG(Warning) << "metrics registry full; dropping metric "
                          << std::string(name);
    return -1;
  }
  const int id = static_cast<int>(names->size());
  names->emplace_back(name);
  ids->emplace(std::string(name), id);
  return id;
}

}  // namespace

std::string LabeledName(std::string_view base, const MetricLabels& labels) {
  if (labels.empty()) return std::string(base);
  std::string out(base);
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

ParsedMetricName ParseMetricName(std::string_view full_name) {
  ParsedMetricName parsed;
  const size_t open = full_name.find('{');
  if (open == std::string_view::npos || full_name.back() != '}') {
    parsed.base = std::string(full_name);
    return parsed;
  }
  parsed.base = std::string(full_name.substr(0, open));
  std::string_view block = full_name.substr(open + 1);
  block.remove_suffix(1);  // '}'
  while (!block.empty()) {
    const size_t comma = block.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? block : block.substr(0, comma);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      parsed.labels.emplace_back(std::string(pair.substr(0, eq)),
                                 std::string(pair.substr(eq + 1)));
    }
    if (comma == std::string_view::npos) break;
    block.remove_prefix(comma + 1);
  }
  return parsed;
}

std::string_view LabelValue(const MetricLabels& labels, std::string_view key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

bool LabelsMatch(const MetricLabels& have, const MetricLabels& want) {
  for (const auto& [key, value] : want) {
    if (LabelValue(have, key) != value) return false;
  }
  return true;
}

void Counter::Add(double value) const {
  if (id_ < 0 || !MetricsEnabled()) return;
  RelaxedAdd(&ThisShard()->counters[id_], value);
}

void Gauge::Set(double value) const {
  if (id_ < 0 || !MetricsEnabled()) return;
  GetImpl().gauges[id_].store(value, std::memory_order_relaxed);
}

void Gauge::Add(double delta) const {
  if (id_ < 0 || !MetricsEnabled()) return;
  std::atomic<double>& slot = GetImpl().gauges[id_];
  double current = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Record(double value) const {
  if (id_ < 0 || !MetricsEnabled()) return;
  HistogramShard& h = ThisShard()->histograms[id_];
  h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  RelaxedAdd(&h.sum, value);
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // NOLINTNEXTLINE(sketchml-naked-new): leaked singleton, safe at exit.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
  Impl& impl = GetImpl();
  return Counter(
      Register(&impl.counter_ids, &impl.counter_names, kMaxCounters, name));
}

Gauge MetricsRegistry::GetGauge(std::string_view name) {
  Impl& impl = GetImpl();
  return Gauge(
      Register(&impl.gauge_ids, &impl.gauge_names, kMaxGauges, name));
}

Histogram MetricsRegistry::GetHistogram(std::string_view name) {
  Impl& impl = GetImpl();
  return Histogram(Register(&impl.histogram_ids, &impl.histogram_names,
                            kMaxHistograms, name));
}

Counter MetricsRegistry::GetCounter(std::string_view base,
                                    const MetricLabels& labels) {
  return GetCounter(LabeledName(base, labels));
}

Gauge MetricsRegistry::GetGauge(std::string_view base,
                                const MetricLabels& labels) {
  return GetGauge(LabeledName(base, labels));
}

Histogram MetricsRegistry::GetHistogram(std::string_view base,
                                        const MetricLabels& labels) {
  return GetHistogram(LabeledName(base, labels));
}

namespace {
// Seam to the sketch library (see metrics_registry.h). Plain atomics so
// installation from the sketch registry's first-use path needs no lock.
std::atomic<SketchSummarySource> g_sketch_summary_source{nullptr};
std::atomic<SketchResetHook> g_sketch_reset_hook{nullptr};
}  // namespace

void SetSketchSummarySource(SketchSummarySource source) {
  g_sketch_summary_source.store(source, std::memory_order_release);
}

std::vector<SketchHistogramSummary> CollectSketchSummaries() {
  const SketchSummarySource source =
      g_sketch_summary_source.load(std::memory_order_acquire);
  if (source == nullptr) return {};
  return source();
}

void SetSketchResetHook(SketchResetHook hook) {
  g_sketch_reset_hook.store(hook, std::memory_order_release);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& impl = GetImpl();
  MetricsSnapshot snap;
  // The sketch registry has its own lock; collect outside ours so the two
  // never nest.
  snap.sketches = CollectSketchSummaries();
  common::MutexLock lock(impl.mutex);

  snap.counters.resize(impl.counter_names.size());
  for (size_t i = 0; i < impl.counter_names.size(); ++i) {
    snap.counters[i].name = impl.counter_names[i];
    double total = impl.retired.counters[i];
    for (const Shard* shard : impl.live_shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters[i].value = total;
  }

  snap.gauges.resize(impl.gauge_names.size());
  for (size_t i = 0; i < impl.gauge_names.size(); ++i) {
    snap.gauges[i].name = impl.gauge_names[i];
    snap.gauges[i].value = impl.gauges[i].load(std::memory_order_relaxed);
  }

  snap.histograms.resize(impl.histogram_names.size());
  for (size_t i = 0; i < impl.histogram_names.size(); ++i) {
    MetricsSnapshot::HistogramValue& out = snap.histograms[i];
    out.name = impl.histogram_names[i];
    const RetiredTotals::Hist& r = impl.retired.histograms[i];
    out.count = r.count;
    out.sum = r.sum;
    double min = r.min;
    double max = r.max;
    for (const Shard* shard : impl.live_shards) {
      const HistogramShard& h = shard->histograms[i];
      out.count += h.count.load(std::memory_order_relaxed);
      out.sum += h.sum.load(std::memory_order_relaxed);
      min = std::min(min, h.min.load(std::memory_order_relaxed));
      max = std::max(max, h.max.load(std::memory_order_relaxed));
    }
    out.min = out.count > 0 ? min : 0.0;
    out.max = out.count > 0 ? max : 0.0;
  }
  return snap;
}

void MetricsRegistry::Reset() {
  Impl& impl = GetImpl();
  // Clear sketch slots first, outside our lock (the hook takes the sketch
  // registry's own lock and must never nest with ours).
  if (const SketchResetHook hook =
          g_sketch_reset_hook.load(std::memory_order_acquire)) {
    hook();
  }
  common::MutexLock lock(impl.mutex);
  impl.retired = RetiredTotals();
  for (auto& gauge : impl.gauges) {
    gauge.store(0.0, std::memory_order_relaxed);
  }
  for (Shard* shard : impl.live_shards) {
    for (auto& counter : shard->counters) {
      counter.store(0.0, std::memory_order_relaxed);
    }
    for (HistogramShard& h : shard->histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      h.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    }
  }
}

double MetricsSnapshot::CounterValueOf(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0.0;
}

double MetricsSnapshot::GaugeValueOf(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

double MetricsSnapshot::SumCounters(std::string_view base,
                                    const MetricLabels& want) const {
  double total = 0.0;
  for (const auto& c : counters) {
    // Cheap pre-filter: a matching name starts with `base` followed by
    // either end-of-string or a '{' label block.
    if (c.name.size() < base.size() ||
        std::string_view(c.name).substr(0, base.size()) != base) {
      continue;
    }
    if (c.name.size() > base.size() && c.name[base.size()] != '{') continue;
    const ParsedMetricName parsed = ParseMetricName(c.name);
    if (parsed.base == base && LabelsMatch(parsed.labels, want)) {
      total += c.value;
    }
  }
  return total;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const SketchHistogramSummary* MetricsSnapshot::FindSketch(
    std::string_view name) const {
  for (const auto& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void AppendSketchSummaryFields(std::ostream& out,
                               const SketchHistogramSummary& s) {
  out << "\"count\":" << s.count << ",\"min\":";
  AppendJsonNumber(out, s.min);
  out << ",\"max\":";
  AppendJsonNumber(out, s.max);
  out << ",\"eps\":";
  AppendJsonNumber(out, s.eps);
  const struct {
    const char* key;
    const SketchQuantile& q;
  } grid[] = {{"p50", s.p50},   {"p90", s.p90},   {"p99", s.p99},
              {"p999", s.p999}, {"wp50", s.wp50}, {"wp99", s.wp99}};
  for (const auto& [key, q] : grid) {
    out << ",\"" << key << "\":";
    AppendJsonNumber(out, q.value);
    out << ",\"" << key << "_lo\":";
    AppendJsonNumber(out, q.lo);
    out << ",\"" << key << "_hi\":";
    AppendJsonNumber(out, q.hi);
  }
  out << ",\"window_count\":" << s.window_count
      << ",\"windows\":" << s.windows;
}

namespace {

/// Emits `,"labels":{...}` for canonical labeled names, nothing for
/// plain ones.
void AppendParsedLabels(std::ostream& out, const std::string& name) {
  const ParsedMetricName parsed = ParseMetricName(name);
  if (parsed.labels.empty()) return;
  out << ",\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : parsed.labels) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, key);
    out << ':';
    AppendJsonString(out, value);
  }
  out << '}';
}

}  // namespace

void MetricsSnapshot::WriteJsonl(std::ostream& out) const {
  for (const auto& c : counters) {
    if (c.value == 0.0) continue;
    out << "{\"type\":\"counter\",\"name\":";
    AppendJsonString(out, c.name);
    out << ",\"value\":";
    AppendJsonNumber(out, c.value);
    AppendParsedLabels(out, c.name);
    out << "}\n";
  }
  for (const auto& g : gauges) {
    out << "{\"type\":\"gauge\",\"name\":";
    AppendJsonString(out, g.name);
    out << ",\"value\":";
    AppendJsonNumber(out, g.value);
    AppendParsedLabels(out, g.name);
    out << "}\n";
  }
  for (const auto& h : histograms) {
    if (h.count == 0) continue;
    out << "{\"type\":\"histogram\",\"name\":";
    AppendJsonString(out, h.name);
    out << ",\"count\":" << h.count << ",\"sum\":";
    AppendJsonNumber(out, h.sum);
    out << ",\"min\":";
    AppendJsonNumber(out, h.min);
    out << ",\"max\":";
    AppendJsonNumber(out, h.max);
    AppendParsedLabels(out, h.name);
    out << "}\n";
  }
  for (const auto& s : sketches) {
    if (s.count == 0) continue;
    out << "{\"type\":\"sketch_histogram\",\"name\":";
    AppendJsonString(out, s.name);
    out << ',';
    AppendSketchSummaryFields(out, s);
    AppendParsedLabels(out, s.name);
    out << "}\n";
  }
}

}  // namespace sketchml::obs
