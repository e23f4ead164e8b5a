#include "common/metrics_sampler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/trace.h"

#ifndef SKETCHML_GIT_SHA
#define SKETCHML_GIT_SHA "unknown"
#endif

namespace sketchml::obs {

namespace {

using common::AppendJsonNumber;
using common::AppendJsonString;

/// Prom metric-name charset: [a-zA-Z0-9_:]. Slashes (our namespace
/// separator) and anything else become '_'; a "sketchml_" prefix
/// namespaces the exporter.
std::string PromName(std::string_view base) {
  std::string out = "sketchml_";
  out.reserve(out.size() + base.size());
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// `{k1="v1",k2="v2"}` label block (empty string when no labels), with
/// prom escaping of label values. `extra` appends one more pair, used
/// for `quantile`.
std::string PromLabels(const MetricLabels& labels, std::string_view extra_key,
                       std::string_view extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  const auto append = [&](std::string_view key, std::string_view value) {
    if (!first) out += ',';
    first = false;
    out.append(key);
    out += "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += '"';
  };
  for (const auto& [key, value] : labels) append(key, value);
  if (!extra_key.empty()) append(extra_key, extra_value);
  out += '}';
  return out;
}

std::string PromNumber(double v) {
  if (!std::isfinite(v)) {
    return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
  }
  if (v == std::floor(v) && std::abs(v) < 9e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Emits the `# TYPE` line once per metric family (several labeled
/// instances share one family).
void PromTypeLine(std::ostream& out, std::vector<std::string>* seen,
                  const std::string& family, std::string_view type) {
  if (std::find(seen->begin(), seen->end(), family) != seen->end()) return;
  seen->push_back(family);
  out << "# TYPE " << family << ' ' << type << '\n';
}

}  // namespace

void WritePromExposition(const MetricsSnapshot& snapshot, std::ostream& out) {
  std::vector<std::string> seen;
  for (const auto& c : snapshot.counters) {
    if (c.value == 0.0) continue;
    const ParsedMetricName parsed = ParseMetricName(c.name);
    const std::string family = PromName(parsed.base);
    PromTypeLine(out, &seen, family, "counter");
    out << family << PromLabels(parsed.labels, "", "") << ' '
        << PromNumber(c.value) << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    const ParsedMetricName parsed = ParseMetricName(g.name);
    const std::string family = PromName(parsed.base);
    PromTypeLine(out, &seen, family, "gauge");
    out << family << PromLabels(parsed.labels, "", "") << ' '
        << PromNumber(g.value) << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    if (h.count == 0) continue;
    const ParsedMetricName parsed = ParseMetricName(h.name);
    const std::string family = PromName(parsed.base);
    // Exact count/sum only: a quantile-free summary.
    PromTypeLine(out, &seen, family, "summary");
    out << family << "_sum" << PromLabels(parsed.labels, "", "") << ' '
        << PromNumber(h.sum) << '\n';
    out << family << "_count" << PromLabels(parsed.labels, "", "") << ' '
        << h.count << '\n';
  }
  for (const auto& s : snapshot.sketches) {
    if (s.count == 0) continue;
    const ParsedMetricName parsed = ParseMetricName(s.name);
    const std::string family = PromName(parsed.base);
    PromTypeLine(out, &seen, family, "summary");
    const struct {
      const char* q;
      double value;
    } grid[] = {{"0.5", s.p50.value},
                {"0.9", s.p90.value},
                {"0.99", s.p99.value},
                {"0.999", s.p999.value}};
    for (const auto& [q, value] : grid) {
      out << family << PromLabels(parsed.labels, "quantile", q) << ' '
          << PromNumber(value) << '\n';
    }
    out << family << "_count" << PromLabels(parsed.labels, "", "") << ' '
        << s.count << '\n';
  }
}

void RunMetadata::Add(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  entries.emplace_back(std::string(key), buf);
}

void RunMetadata::Add(std::string_view key, long long value) {
  entries.emplace_back(std::string(key), std::to_string(value));
}

std::string BuildGitSha() { return SKETCHML_GIT_SHA; }

common::Result<std::unique_ptr<MetricsSampler>> MetricsSampler::Start(
    Options options) {
  if (options.out_path.empty()) {
    return common::Status::InvalidArgument("sampler needs an output path");
  }
  std::unique_ptr<MetricsSampler> sampler(
      // NOLINTNEXTLINE(sketchml-naked-new): make_unique needs a public ctor.
      new MetricsSampler(std::move(options)));
  {
    // No other thread exists yet; the lock just satisfies the
    // guarded-by contract on out_.
    common::MutexLock lock(sampler->mutex_);
    if (!sampler->out_) {
      return common::Status::IoError("cannot open " +
                                     sampler->options_.out_path);
    }
  }
  sampler->WriteHeader();
  if (sampler->options_.interval_seconds > 0.0) {
    sampler->periodic_ = std::thread([s = sampler.get()] {
      s->PeriodicLoop();
    });
  }
  return sampler;
}

MetricsSampler::MetricsSampler(Options options)
    : options_(std::move(options)), out_(options_.out_path) {}

MetricsSampler::~MetricsSampler() {
  // A destructor cannot propagate the flush failure; surface it in the
  // log instead of dropping it (callers wanting the Status call Stop()).
  const common::Status status = Stop();
  if (!status.ok()) {
    SKETCHML_LOG(Warning) << "MetricsSampler final flush failed: "
                          << status.ToString();
  }
}

void MetricsSampler::WriteHeader() {
  common::MutexLock lock(mutex_);
  out_ << "{\"type\":\"run\",\"schema\":1,\"git_sha\":";
  AppendJsonString(out_, BuildGitSha());
  out_ << ",\"start_unix_ms\":"
       // Wall-clock on purpose: the run header records when the run
       // happened for humans; nothing downstream computes with it.
       << std::chrono::duration_cast<std::chrono::milliseconds>(
              // NOLINTNEXTLINE(sketchml-wallclock): run header, humans only.
              std::chrono::system_clock::now().time_since_epoch())
              .count();
  out_ << ",\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : options_.metadata.entries) {
    if (!first) out_ << ',';
    first = false;
    AppendJsonString(out_, key);
    out_ << ':';
    AppendJsonString(out_, value);
  }
  out_ << "}}\n";
}

void MetricsSampler::SampleNow(std::string_view reason) {
  common::MutexLock lock(mutex_);
  if (stopped_) return;
  WriteSampleLocked(reason);
}

void MetricsSampler::WriteSampleLocked(std::string_view reason) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  out_ << "{\"type\":\"sample\",\"t_ns\":" << NowNs() << ",\"reason\":";
  AppendJsonString(out_, reason);
  out_ << ",\"dropped_trace_events\":" << TraceLog::Global().DroppedEvents();

  out_ << ",\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (c.value == 0.0) continue;
    if (!first) out_ << ',';
    first = false;
    AppendJsonString(out_, c.name);
    out_ << ':';
    AppendJsonNumber(out_, c.value);
  }
  out_ << "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (g.value == 0.0) continue;
    if (!first) out_ << ',';
    first = false;
    AppendJsonString(out_, g.name);
    out_ << ':';
    AppendJsonNumber(out_, g.value);
  }
  out_ << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    if (!first) out_ << ',';
    first = false;
    AppendJsonString(out_, h.name);
    out_ << ":{\"count\":" << h.count << ",\"sum\":";
    AppendJsonNumber(out_, h.sum);
    out_ << ",\"min\":";
    AppendJsonNumber(out_, h.min);
    out_ << ",\"max\":";
    AppendJsonNumber(out_, h.max);
    out_ << '}';
  }
  out_ << "},\"sketches\":{";
  first = true;
  for (const auto& s : snap.sketches) {
    if (s.count == 0) continue;
    if (!first) out_ << ',';
    first = false;
    AppendJsonString(out_, s.name);
    out_ << ":{";
    AppendSketchSummaryFields(out_, s);
    out_ << '}';
  }
  out_ << "}}\n";
  out_.flush();
  ++samples_written_;
}

void MetricsSampler::PeriodicLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds);
  common::MutexLock lock(mutex_);
  for (;;) {
    if (stopping_) return;
    // Plain timed wait instead of the predicate overload (the analysis
    // cannot see through a predicate lambda). A spurious wakeup at worst
    // writes one sample early; Stop() always sets stopping_ first.
    cv_.WaitFor(mutex_, interval);
    if (stopping_) return;
    WriteSampleLocked("interval");
  }
}

common::Status MetricsSampler::Stop() {
  {
    common::MutexLock lock(mutex_);
    if (stopped_) return common::Status::Ok();
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (periodic_.joinable()) periodic_.join();
  common::MutexLock lock(mutex_);
  stopped_ = true;
  WriteSampleLocked("final");
  out_.flush();
  if (!out_) {
    return common::Status::IoError("failed writing " + options_.out_path);
  }
  return common::Status::Ok();
}

size_t MetricsSampler::samples_written() const {
  common::MutexLock lock(mutex_);
  return samples_written_;
}

}  // namespace sketchml::obs
