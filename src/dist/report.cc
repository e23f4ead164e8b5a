#include "dist/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.h"

namespace sketchml::dist {
namespace {

using common::JsonValue;

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// "1.234 s" / "12.3 ms" — phase durations span six orders of magnitude.
std::string FormatSeconds(double seconds) {
  if (seconds >= 1.0) return Format("%.3f s", seconds);
  if (seconds >= 1e-3) return Format("%.3f ms", seconds * 1e3);
  return Format("%.1f us", seconds * 1e6);
}

std::string FormatNanos(double ns) { return FormatSeconds(ns * 1e-9); }

std::string FormatBytes(double bytes) {
  if (bytes >= 1 << 20) {
    return Format("%.2f MiB", bytes / static_cast<double>(1 << 20));
  }
  if (bytes >= 1 << 10) {
    return Format("%.2f KiB", bytes / static_cast<double>(1 << 10));
  }
  return Format("%.0f B", bytes);
}

/// Reads the integer value of label `key` from a canonical metric name,
/// -1 when absent or non-numeric.
int LabelInt(const obs::MetricLabels& labels, std::string_view key) {
  const std::string_view value = obs::LabelValue(labels, key);
  if (value.empty()) return -1;
  int out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return -1;
    out = out * 10 + (c - '0');
  }
  return out;
}

void ParseNumberMap(const JsonValue* obj,
                    std::vector<std::pair<std::string, double>>* out) {
  if (obj == nullptr || !obj->is_object()) return;
  out->reserve(obj->object_items().size());
  for (const auto& [name, value] : obj->object_items()) {
    if (value.is_number()) out->emplace_back(name, value.number_value());
  }
}

SeriesSample ParseSample(const JsonValue& line) {
  SeriesSample sample;
  sample.t_ns = line.NumberOr("t_ns", 0.0);
  sample.reason = line.StringOr("reason", "");
  sample.dropped_trace_events = line.NumberOr("dropped_trace_events", 0.0);
  ParseNumberMap(line.Find("counters"), &sample.counters);
  ParseNumberMap(line.Find("gauges"), &sample.gauges);
  if (const JsonValue* sketches = line.Find("sketches");
      sketches != nullptr && sketches->is_object()) {
    for (const auto& [name, s] : sketches->object_items()) {
      if (!s.is_object()) continue;
      SketchSummary summary;
      summary.name = name;
      summary.count = s.NumberOr("count", 0.0);
      summary.min = s.NumberOr("min", 0.0);
      summary.max = s.NumberOr("max", 0.0);
      summary.eps = s.NumberOr("eps", 0.0);
      const struct {
        const char* key;
        double* value;
        double* lo;
        double* hi;
      } grid[] = {
          {"p50", &summary.p50, &summary.p50_lo, &summary.p50_hi},
          {"p90", &summary.p90, &summary.p90_lo, &summary.p90_hi},
          {"p99", &summary.p99, &summary.p99_lo, &summary.p99_hi},
          {"p999", &summary.p999, &summary.p999_lo, &summary.p999_hi},
          {"wp50", &summary.wp50, &summary.wp50_lo, &summary.wp50_hi},
          {"wp99", &summary.wp99, &summary.wp99_lo, &summary.wp99_hi},
      };
      for (const auto& q : grid) {
        *q.value = s.NumberOr(q.key, 0.0);
        *q.lo = s.NumberOr(std::string(q.key) + "_lo", 0.0);
        *q.hi = s.NumberOr(std::string(q.key) + "_hi", 0.0);
      }
      summary.window_count = s.NumberOr("window_count", 0.0);
      summary.windows = s.NumberOr("windows", 0.0);
      sample.sketches.push_back(std::move(summary));
    }
  }
  return sample;
}

/// Counter delta between two cumulative samples (`prev` may be null for
/// the first epoch).
double Delta(const SeriesSample& sample, const SeriesSample* prev,
             std::string_view name) {
  const double now = sample.CounterOr(name, 0.0);
  return prev == nullptr ? now : now - prev->CounterOr(name, 0.0);
}

double SumDelta(const SeriesSample& sample, const SeriesSample* prev,
                std::string_view base, const obs::MetricLabels& want) {
  const double now = sample.SumCounters(base, want);
  return prev == nullptr ? now : now - prev->SumCounters(base, want);
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsTimingMetric(std::string_view base) {
  return EndsWith(base, "_seconds") || EndsWith(base, "_ns");
}

/// Metrics where a larger value is unambiguously worse. Everything else
/// is count-style: deterministic for a fixed seed, so *any* drift there
/// is a behavior change worth flagging.
bool IsHigherWorse(std::string_view base) {
  return IsTimingMetric(base) || EndsWith(base, "_bytes") ||
         base.find("bytes") != std::string_view::npos ||
         base.find("error") != std::string_view::npos ||
         base.find("residual") != std::string_view::npos ||
         base.find("dropped") != std::string_view::npos ||
         EndsWith(base, "_loss");
}

}  // namespace

double SeriesSample::CounterOr(std::string_view name,
                               double default_value) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return default_value;
}

double SeriesSample::GaugeOr(std::string_view name,
                             double default_value) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return default_value;
}

const SketchSummary* SeriesSample::FindSketch(std::string_view name) const {
  for (const auto& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double SeriesSample::SumCounters(std::string_view base,
                                 const obs::MetricLabels& want) const {
  double total = 0.0;
  for (const auto& [name, value] : counters) {
    if (name.size() < base.size() ||
        std::string_view(name).substr(0, base.size()) != base) {
      continue;
    }
    if (name.size() > base.size() && name[base.size()] != '{') continue;
    const obs::ParsedMetricName parsed = obs::ParseMetricName(name);
    if (parsed.base == base && obs::LabelsMatch(parsed.labels, want)) {
      total += value;
    }
  }
  return total;
}

std::string RunSeries::MetaOr(std::string_view key,
                              std::string_view default_value) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::string(default_value);
}

const SeriesSample* RunSeries::Final() const {
  return samples.empty() ? nullptr : &samples.back();
}

std::vector<const SeriesSample*> RunSeries::EpochSamples() const {
  std::vector<const SeriesSample*> out;
  for (const SeriesSample& sample : samples) {
    if (sample.reason == "epoch") out.push_back(&sample);
  }
  return out;
}

common::Result<RunSeries> ParseRunSeries(std::string_view text) {
  RunSeries series;
  bool saw_header = false;
  size_t line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const size_t newline = text.find('\n');
    const std::string_view line =
        newline == std::string_view::npos ? text : text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view()
                                             : text.substr(newline + 1);
    if (line.empty()) continue;
    SKETCHML_ASSIGN_OR_RETURN(const JsonValue value, JsonValue::Parse(line));
    const std::string type = value.StringOr("type", "");
    if (type == "run") {
      saw_header = true;
      series.git_sha = value.StringOr("git_sha", "unknown");
      if (const JsonValue* meta = value.Find("meta");
          meta != nullptr && meta->is_object()) {
        for (const auto& [key, v] : meta->object_items()) {
          if (v.is_string()) series.meta.emplace_back(key, v.string_value());
        }
      }
    } else if (type == "sample") {
      series.samples.push_back(ParseSample(value));
    } else {
      return common::Status::InvalidArgument(
          "series line " + std::to_string(line_number) +
          ": unknown type '" + type + "'");
    }
  }
  if (!saw_header) {
    return common::Status::InvalidArgument(
        "not a run series: missing {\"type\":\"run\"} header line");
  }
  return series;
}

common::Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return common::Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return common::Status::IoError("failed reading " + path);
  return buffer.str();
}

common::Result<RunSeries> LoadRunSeries(const std::string& path) {
  SKETCHML_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  auto parsed = ParseRunSeries(text);
  if (!parsed.ok()) {
    return common::Status::InvalidArgument(path + ": " +
                                           parsed.status().message());
  }
  return parsed;
}

RunReport BuildRunReport(const RunSeries& series) {
  RunReport report;
  report.git_sha = series.git_sha;
  report.meta = series.meta;
  const SeriesSample* final_sample = series.Final();
  if (final_sample == nullptr) return report;

  report.compute_seconds =
      final_sample->CounterOr("trainer/compute_seconds", 0.0);
  report.encode_seconds =
      final_sample->CounterOr("trainer/encode_seconds", 0.0);
  report.decode_seconds =
      final_sample->CounterOr("trainer/decode_seconds", 0.0);
  report.update_seconds =
      final_sample->CounterOr("trainer/update_seconds", 0.0);
  report.network_seconds =
      final_sample->CounterOr("trainer/network_seconds", 0.0);
  report.dropped_trace_events = final_sample->dropped_trace_events;
  report.sketches = final_sample->sketches;

  // Per-worker and per-server rows: discover the entity ids from the
  // label values actually present, then read each phase slice.
  std::set<int> worker_ids, server_ids;
  std::set<std::string> codec_names;
  for (const auto& [name, value] : final_sample->counters) {
    (void)value;
    const obs::ParsedMetricName parsed = obs::ParseMetricName(name);
    if (parsed.base == "trainer/worker_seconds" ||
        parsed.base == "trainer/recovery_error_l1") {
      const int w = LabelInt(parsed.labels, "worker");
      if (w >= 0) worker_ids.insert(w);
    } else if (parsed.base == "trainer/server_seconds" ||
               parsed.base == "trainer/gather_bytes") {
      const int s = LabelInt(parsed.labels, "server");
      if (s >= 0) server_ids.insert(s);
    } else if (parsed.base.rfind("codec/", 0) == 0) {
      const std::string_view codec = obs::LabelValue(parsed.labels, "codec");
      if (!codec.empty()) codec_names.insert(std::string(codec));
    }
  }

  for (int w : worker_ids) {
    WorkerPhaseRow row;
    row.worker = w;
    const std::string ws = std::to_string(w);
    row.compute_seconds = final_sample->SumCounters(
        "trainer/worker_seconds", {{"worker", ws}, {"phase", "compute"}});
    row.encode_seconds = final_sample->SumCounters(
        "trainer/worker_seconds", {{"worker", ws}, {"phase", "encode"}});
    row.recovery_error_l1 = final_sample->SumCounters(
        "trainer/recovery_error_l1", {{"worker", ws}});
    row.recovery_ref_l1 = final_sample->SumCounters(
        "trainer/recovery_ref_l1", {{"worker", ws}});
    report.workers.push_back(row);
  }

  for (int s : server_ids) {
    ServerPhaseRow row;
    row.server = s;
    const std::string ss = std::to_string(s);
    row.decode_seconds = final_sample->SumCounters(
        "trainer/server_seconds", {{"server", ss}, {"phase", "decode"}});
    row.gather_seconds = final_sample->SumCounters(
        "trainer/server_seconds", {{"server", ss}, {"phase", "gather"}});
    row.gather_bytes =
        final_sample->SumCounters("trainer/gather_bytes", {{"server", ss}});
    report.servers.push_back(row);
  }

  for (const std::string& codec : codec_names) {
    CodecRow row;
    row.codec = codec;
    const obs::MetricLabels want{{"codec", codec}};
    row.encode_calls =
        final_sample->SumCounters("codec/encode_calls", want);
    row.encode_bytes =
        final_sample->SumCounters("codec/encode_bytes", want);
    row.raw_bytes = final_sample->SumCounters("codec/raw_bytes", want);
    // Every instance of the codec records into one latency sketch.
    if (const SketchSummary* s = final_sample->FindSketch(
            obs::LabeledName("codec/encode_ns", want))) {
      row.p50_encode_ns = s->p50;
      row.p99_encode_ns = s->p99;
    }
    if (const SketchSummary* s = final_sample->FindSketch(
            obs::LabeledName("codec/decode_ns", want))) {
      row.p50_decode_ns = s->p50;
      row.p99_decode_ns = s->p99;
    }
    report.codecs.push_back(row);
  }

  // Fault totals (all zero unless the run had an active FaultPlan; the
  // trainer registers these names only when faults actually fire).
  report.faults.injected_drop =
      final_sample->SumCounters("fault/injected", {{"kind", "drop"}});
  report.faults.injected_corrupt =
      final_sample->SumCounters("fault/injected", {{"kind", "corrupt"}});
  report.faults.injected_straggle =
      final_sample->SumCounters("fault/injected", {{"kind", "straggle"}});
  report.faults.injected_crash =
      final_sample->SumCounters("fault/injected", {{"kind", "crash"}});
  report.faults.injected_stall =
      final_sample->SumCounters("fault/injected", {{"kind", "stall"}});
  report.faults.retries = final_sample->SumCounters("net/retries", {});
  report.faults.retransmit_bytes =
      final_sample->SumCounters("net/retransmit_bytes", {});
  report.faults.lost_messages =
      final_sample->CounterOr("net/lost_messages", 0.0);
  report.faults.degraded_batches =
      final_sample->CounterOr("trainer/degraded_batches", 0.0);

  // Membership totals (all zero unless the run had an active
  // MembershipPlan or checkpoints; the trainer registers these names
  // only when the feature is on).
  report.membership.joins =
      final_sample->SumCounters("membership/events", {{"kind", "join"}});
  report.membership.leaves =
      final_sample->SumCounters("membership/events", {{"kind", "leave"}});
  report.membership.departs =
      final_sample->SumCounters("membership/events", {{"kind", "depart"}});
  report.membership.handoff_bytes =
      final_sample->CounterOr("membership/handoff_bytes", 0.0);
  report.membership.sync_bytes =
      final_sample->CounterOr("membership/sync_bytes", 0.0);
  report.membership.reconfigurations =
      final_sample->CounterOr("membership/reconfigurations", 0.0);
  report.membership.rollbacks =
      final_sample->CounterOr("membership/rollbacks", 0.0);
  report.membership.checkpoint_bytes =
      final_sample->CounterOr("membership/checkpoint_bytes", 0.0);

  // Per-epoch rows from deltas of successive epoch-boundary samples.
  const std::vector<const SeriesSample*> epoch_samples =
      series.EpochSamples();
  const SeriesSample* prev = nullptr;
  int epoch = 0;
  for (const SeriesSample* sample : epoch_samples) {
    EpochRow row;
    row.epoch = ++epoch;
    row.compute_seconds = Delta(*sample, prev, "trainer/compute_seconds");
    row.encode_seconds = Delta(*sample, prev, "trainer/encode_seconds");
    row.decode_seconds = Delta(*sample, prev, "trainer/decode_seconds");
    row.update_seconds = Delta(*sample, prev, "trainer/update_seconds");
    row.network_seconds = Delta(*sample, prev, "trainer/network_seconds");
    row.train_loss = sample->GaugeOr("trainer/train_loss", 0.0);
    row.test_loss = sample->GaugeOr("trainer/test_loss", 0.0);

    // `worker_ids` is the union over the whole run; with elastic
    // membership a worker may join or leave mid-run, so average over the
    // workers that actually accumulated time *this epoch* — dividing by
    // the lifetime label count would dilute the mean and fake straggler
    // imbalance in every epoch after the fleet changed.
    double total_worker_seconds = 0.0;
    int epoch_worker_count = 0;
    for (int w : worker_ids) {
      const double seconds =
          SumDelta(*sample, prev, "trainer/worker_seconds",
                   {{"worker", std::to_string(w)}});
      if (seconds <= 0.0) continue;  // Not active this epoch.
      total_worker_seconds += seconds;
      ++epoch_worker_count;
      if (seconds > row.straggler_seconds) {
        row.straggler_seconds = seconds;
        row.straggler_worker = w;
      }
    }
    if (epoch_worker_count > 0) {
      row.mean_worker_seconds =
          total_worker_seconds / static_cast<double>(epoch_worker_count);
    }

    // p99 straggler from the per-worker latency sketches: the windowed
    // p99 is recomputed from the retired epoch windows, so reading it at
    // the epoch sample gives this epoch's tail without delta arithmetic.
    double sum_p99 = 0.0;
    int p99_workers = 0;
    for (int w : worker_ids) {
      const SketchSummary* sketch = sample->FindSketch(obs::LabeledName(
          "trainer/compute_latency_seconds",
          {{"worker", std::to_string(w)}}));
      if (sketch == nullptr || sketch->count <= 0.0) continue;
      sum_p99 += sketch->wp99;
      ++p99_workers;
      if (sketch->wp99 > row.p99_straggler_seconds) {
        row.p99_straggler_seconds = sketch->wp99;
        row.p99_straggler_worker = w;
      }
    }
    if (p99_workers > 0) {
      row.mean_worker_p99 = sum_p99 / static_cast<double>(p99_workers);
    }
    report.epochs.push_back(row);
    prev = sample;
  }
  return report;
}

std::string RenderRunReport(const RunReport& report) {
  std::ostringstream out;
  out << "run: git_sha=" << report.git_sha;
  for (const auto& [key, value] : report.meta) {
    out << ' ' << key << '=' << value;
  }
  out << '\n';

  const double total = report.compute_seconds + report.encode_seconds +
                       report.decode_seconds + report.update_seconds +
                       report.network_seconds;
  out << "\n== phase totals (simulated) ==\n";
  const auto phase = [&](const char* name, double seconds) {
    out << "  " << name << ": " << FormatSeconds(seconds);
    if (total > 0.0) {
      out << "  (" << Format("%.1f%%", seconds / total * 100.0) << ")";
    }
    out << '\n';
  };
  phase("compute", report.compute_seconds);
  phase("encode ", report.encode_seconds);
  phase("decode ", report.decode_seconds);
  phase("update ", report.update_seconds);
  phase("network", report.network_seconds);
  out << "  total  : " << FormatSeconds(total) << '\n';

  if (!report.workers.empty()) {
    out << "\n== per-worker breakdown (Fig. 9 view) ==\n";
    out << "  worker     compute      encode       total   recovery-err\n";
    for (const WorkerPhaseRow& row : report.workers) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "  %6d  %10s  %10s  %10s  %12s\n", row.worker,
                    FormatSeconds(row.compute_seconds).c_str(),
                    FormatSeconds(row.encode_seconds).c_str(),
                    FormatSeconds(row.TotalSeconds()).c_str(),
                    Format("%.4g", row.RecoveryErrorRel()).c_str());
      out << buf;
    }
  }

  if (!report.servers.empty()) {
    out << "\n== per-server breakdown ==\n";
    out << "  server      decode      gather        bytes\n";
    for (const ServerPhaseRow& row : report.servers) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %6d  %10s  %10s  %11s\n",
                    row.server, FormatSeconds(row.decode_seconds).c_str(),
                    FormatSeconds(row.gather_seconds).c_str(),
                    FormatBytes(row.gather_bytes).c_str());
      out << buf;
    }
  }

  if (!report.codecs.empty()) {
    out << "\n== codecs ==\n";
    for (const CodecRow& row : report.codecs) {
      out << "  " << row.codec << ": ratio "
          << Format("%.2fx", row.CompressionRatio()) << " ("
          << FormatBytes(row.raw_bytes) << " -> "
          << FormatBytes(row.encode_bytes) << ", "
          << Format("%.0f", row.encode_calls) << " encodes)"
          << ", encode p50 " << FormatNanos(row.p50_encode_ns) << " p99 "
          << FormatNanos(row.p99_encode_ns) << ", decode p50 "
          << FormatNanos(row.p50_decode_ns) << " p99 "
          << FormatNanos(row.p99_decode_ns) << '\n';
    }
  }

  if (!report.epochs.empty()) {
    // Straggler detection uses the p99 of each worker's per-batch
    // compute-latency sketch (tail-sensitive); a series that carries no
    // sketch summaries falls back to the mean-based columns.
    const bool use_p99 =
        std::any_of(report.epochs.begin(), report.epochs.end(),
                    [](const EpochRow& r) {
                      return r.p99_straggler_worker >= 0;
                    });
    out << "\n== per-epoch summary ==\n";
    out << (use_p99
                ? "  epoch       total     compute      encode  "
                  "p99-strag  p99-imbal  train-loss\n"
                : "  epoch       total     compute      encode    "
                  "straggler  imbalance  train-loss\n");
    for (const EpochRow& row : report.epochs) {
      const int straggler =
          use_p99 ? row.p99_straggler_worker : row.straggler_worker;
      const double imbalance =
          use_p99 ? row.P99Imbalance() : row.Imbalance();
      char buf[200];
      std::snprintf(
          buf, sizeof(buf), "  %5d  %10s  %10s  %10s  %9s  %9s  %10s\n",
          row.epoch, FormatSeconds(row.TotalSeconds()).c_str(),
          FormatSeconds(row.compute_seconds).c_str(),
          FormatSeconds(row.encode_seconds).c_str(),
          straggler < 0 ? "-" : ("w" + std::to_string(straggler)).c_str(),
          Format("%.2fx", imbalance).c_str(),
          Format("%.6g", row.train_loss).c_str());
      out << buf;
    }
  }

  if (!report.sketches.empty()) {
    out << "\n== latency sketches (KLL, eps = normalized rank error) ==\n";
    out << "       count        p50        p99  [p99 lo, hi]          "
           "p999       wp99  name\n";
    for (const SketchSummary& s : report.sketches) {
      // Sketches record seconds, except the `_ns` codec latencies.
      const bool nanos = EndsWith(obs::ParseMetricName(s.name).base, "_ns");
      const auto fmt = [nanos](double v) {
        return nanos ? FormatNanos(v) : FormatSeconds(v);
      };
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "  %10s  %9s  %9s  [%s, %s]  %9s  %9s  %s\n",
                    Format("%.0f", s.count).c_str(), fmt(s.p50).c_str(),
                    fmt(s.p99).c_str(), fmt(s.p99_lo).c_str(),
                    fmt(s.p99_hi).c_str(), fmt(s.p999).c_str(),
                    fmt(s.wp99).c_str(), s.name.c_str());
      out << buf;
    }
  }

  if (report.faults.Any()) {
    const FaultSummary& f = report.faults;
    out << "\n== fault tolerance ==\n";
    out << "  injected: " << Format("%.0f", f.InjectedTotal()) << " (drop "
        << Format("%.0f", f.injected_drop) << ", corrupt "
        << Format("%.0f", f.injected_corrupt) << ", straggle "
        << Format("%.0f", f.injected_straggle) << ", crash "
        << Format("%.0f", f.injected_crash) << ", stall "
        << Format("%.0f", f.injected_stall) << ")\n";
    out << "  recovery: " << Format("%.0f", f.retries) << " retries ("
        << FormatBytes(f.retransmit_bytes) << " retransmitted), "
        << Format("%.0f", f.lost_messages) << " messages lost, "
        << Format("%.0f", f.degraded_batches)
        << " batches applied degraded\n";
  }

  if (report.membership.Any()) {
    const MembershipSummary& m = report.membership;
    out << "\n== elastic membership ==\n";
    out << "  events: " << Format("%.0f", m.EventTotal()) << " (join "
        << Format("%.0f", m.joins) << ", leave "
        << Format("%.0f", m.leaves) << ", depart "
        << Format("%.0f", m.departs) << ")\n";
    out << "  handoff: " << FormatBytes(m.handoff_bytes)
        << " state transferred, " << FormatBytes(m.sync_bytes)
        << " weight syncs, " << Format("%.0f", m.reconfigurations)
        << " shard reconfigurations\n";
    out << "  checkpoints: " << FormatBytes(m.checkpoint_bytes)
        << " written, " << Format("%.0f", m.rollbacks) << " rollbacks\n";
  }

  if (report.dropped_trace_events > 0.0) {
    out << "\nWARNING: " << Format("%.0f", report.dropped_trace_events)
        << " trace events dropped (ring wrapped) — timeline truncated;"
           " raise the trace ring capacity.\n";
  }
  return out.str();
}

double MetricDelta::RelChange() const {
  const double base = std::abs(baseline);
  if (base == 0.0) return candidate == 0.0 ? 0.0 : HUGE_VAL;
  return (candidate - baseline) / base;
}

bool DiffResult::HasRegression() const {
  return std::any_of(flagged.begin(), flagged.end(),
                     [](const MetricDelta& d) { return d.regression; }) ||
         std::any_of(slo.begin(), slo.end(),
                     [](const SloDelta& d) { return d.regression; });
}

DiffResult DiffRuns(const RunSeries& baseline, const RunSeries& candidate,
                    const DiffOptions& options) {
  DiffResult result;
  static const SeriesSample kEmpty;
  const SeriesSample& base =
      baseline.Final() != nullptr ? *baseline.Final() : kEmpty;
  const SeriesSample& cand =
      candidate.Final() != nullptr ? *candidate.Final() : kEmpty;

  // Union of metric names on both sides; gauges are prefixed so a gauge
  // and a counter with the same name cannot collide.
  std::map<std::string, std::pair<double, double>> merged;
  const auto fold = [&merged](
                        const std::vector<std::pair<std::string, double>>&
                            metrics,
                        std::string_view prefix, bool is_baseline) {
    for (const auto& [name, value] : metrics) {
      auto& slot = merged[std::string(prefix) + name];
      (is_baseline ? slot.first : slot.second) = value;
    }
  };
  fold(base.counters, "", true);
  fold(cand.counters, "", false);
  fold(base.gauges, "gauge:", true);
  fold(cand.gauges, "gauge:", false);

  for (const auto& [name, values] : merged) {
    std::string_view bare = name;
    const bool is_gauge = bare.rfind("gauge:", 0) == 0;
    if (is_gauge) bare.remove_prefix(6);
    const obs::ParsedMetricName parsed = obs::ParseMetricName(bare);
    // Instantaneous level metrics are transient (whatever the queue depth
    // happened to be at the final snapshot): not comparable across runs.
    if (parsed.base == "threadpool/queue_depth") continue;
    const bool timing = IsTimingMetric(parsed.base);
    if (timing && options.ignore_times) continue;
    ++result.metrics_compared;

    MetricDelta delta;
    delta.name = name;
    delta.baseline = values.first;
    delta.candidate = values.second;
    delta.timing = timing;
    if (std::abs(delta.RelChange()) <= options.threshold) continue;
    // Harmful-direction changes regress; for count-style metrics any
    // drift does (a fixed-seed run reproduces them exactly).
    delta.regression = IsHigherWorse(parsed.base)
                           ? delta.candidate > delta.baseline
                           : true;
    result.flagged.push_back(std::move(delta));
  }
  // Regressions first, then by magnitude.
  std::stable_sort(result.flagged.begin(), result.flagged.end(),
                   [](const MetricDelta& a, const MetricDelta& b) {
                     if (a.regression != b.regression) return a.regression;
                     return std::abs(a.RelChange()) > std::abs(b.RelChange());
                   });

  // SLO section: sketch quantiles compared with sketch-error-aware
  // thresholds. A quantile regresses only when the candidate's value at
  // rank q-2ε exceeds the baseline's at q+2ε — i.e. the drift is larger
  // than what both sketches' combined rank error could explain. The
  // "modeled" naming convention marks sketches of deterministic modeled
  // seconds (network transfer under a fixed seed), which stay comparable
  // even under --ignore-times; measured-latency sketches are skipped
  // there just like wall-clock counters.
  std::set<std::string> sketch_names;
  for (const SketchSummary& s : base.sketches) sketch_names.insert(s.name);
  for (const SketchSummary& s : cand.sketches) sketch_names.insert(s.name);
  static const SketchSummary kEmptySketch;
  for (const std::string& name : sketch_names) {
    const obs::ParsedMetricName parsed = obs::ParseMetricName(name);
    if (options.ignore_times && IsTimingMetric(parsed.base) &&
        name.find("modeled") == std::string::npos) {
      continue;
    }
    ++result.metrics_compared;
    const SketchSummary* b = base.FindSketch(name);
    const SketchSummary* c = cand.FindSketch(name);
    if (b == nullptr) b = &kEmptySketch;
    if (c == nullptr) c = &kEmptySketch;

    // Record counts are deterministic for a fixed seed: any drift is a
    // behavior change (sketch appeared/vanished, or lane cadence moved).
    if (b->count != c->count) {
      SloDelta delta;
      delta.name = name;
      delta.quantile = "count";
      delta.baseline = b->count;
      delta.candidate = c->count;
      delta.baseline_hi = b->count;
      delta.candidate_lo = c->count;
      delta.regression = true;
      result.slo.push_back(std::move(delta));
      continue;  // Quantiles are not comparable at different counts.
    }
    if (b->count == 0.0) continue;

    const struct {
      const char* quantile;
      double baseline, baseline_hi, candidate, candidate_lo;
    } checks[] = {
        {"p50", b->p50, b->p50_hi, c->p50, c->p50_lo},
        {"p99", b->p99, b->p99_hi, c->p99, c->p99_lo},
        {"p999", b->p999, b->p999_hi, c->p999, c->p999_lo},
    };
    for (const auto& check : checks) {
      if (check.candidate_lo <= check.baseline_hi) continue;
      SloDelta delta;
      delta.name = name;
      delta.quantile = check.quantile;
      delta.baseline = check.baseline;
      delta.candidate = check.candidate;
      delta.baseline_hi = check.baseline_hi;
      delta.candidate_lo = check.candidate_lo;
      delta.regression = true;
      result.slo.push_back(std::move(delta));
    }
  }
  return result;
}

std::string RenderDiff(const DiffResult& diff, const DiffOptions& options) {
  std::ostringstream out;
  out << "compared " << diff.metrics_compared << " metrics (threshold "
      << Format("%.0f%%", options.threshold * 100.0)
      << (options.ignore_times ? ", wall-clock metrics ignored" : "")
      << ")\n";
  if (diff.flagged.empty() && diff.slo.empty()) {
    out << "no metric changed beyond the threshold\n";
    return out.str();
  }
  for (const MetricDelta& delta : diff.flagged) {
    const double rel = delta.RelChange();
    out << (delta.regression ? "  REGRESSION  " : "  changed     ")
        << delta.name << ": " << Format("%.6g", delta.baseline) << " -> "
        << Format("%.6g", delta.candidate) << "  (";
    if (std::isinf(rel)) {
      out << "new";
    } else {
      out << Format("%+.1f%%", rel * 100.0);
    }
    out << ")\n";
  }
  if (!diff.slo.empty()) {
    out << "== SLO (sketch quantiles, error-bound aware) ==\n";
    for (const SloDelta& delta : diff.slo) {
      out << (delta.regression ? "  SLO REGRESSION  " : "  slo ok         ")
          << delta.name << " " << delta.quantile << ": "
          << Format("%.6g", delta.baseline) << " -> "
          << Format("%.6g", delta.candidate);
      if (delta.quantile != "count") {
        out << "  (cand lo " << Format("%.6g", delta.candidate_lo)
            << " > base hi " << Format("%.6g", delta.baseline_hi) << ")";
      }
      out << '\n';
    }
  }
  return out.str();
}

TraceSummary SummarizeTrace(const ParsedTrace& trace) {
  TraceSummary summary;
  summary.dropped_events = static_cast<double>(trace.dropped_events);
  std::map<std::pair<std::string, std::string>, TraceSummary::Row> rows;
  for (const TraceSpanRecord& span : trace.spans) {
    TraceSummary::Row& row = rows[{span.category, span.name}];
    row.category = span.category;
    row.name = span.name;
    ++row.count;
    row.total_us += span.dur_us;
    row.max_us = std::max(row.max_us, span.dur_us);
  }
  summary.rows.reserve(rows.size());
  for (auto& [key, row] : rows) summary.rows.push_back(std::move(row));
  std::sort(summary.rows.begin(), summary.rows.end(),
            [](const TraceSummary::Row& a, const TraceSummary::Row& b) {
              return a.total_us > b.total_us;
            });
  return summary;
}

std::string RenderTraceSummary(const TraceSummary& summary) {
  std::ostringstream out;
  out << "== trace span totals ==\n";
  out << "       count      total         max  span\n";
  for (const TraceSummary::Row& row : summary.rows) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "  %10llu  %9s  %10s  %s/%s\n",
                  static_cast<unsigned long long>(row.count),
                  FormatSeconds(row.total_us / 1e6).c_str(),
                  FormatSeconds(row.max_us / 1e6).c_str(),
                  row.category.c_str(), row.name.c_str());
    out << buf;
  }
  if (summary.dropped_events > 0.0) {
    out << "  dropped events: " << Format("%.0f", summary.dropped_events)
        << " (timeline truncated)\n";
  }
  return out.str();
}

common::Result<std::string> SummarizeMetricsJsonl(std::string_view text) {
  std::ostringstream out;
  out << "== metrics dump ==\n";
  size_t line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const size_t newline = text.find('\n');
    const std::string_view line =
        newline == std::string_view::npos ? text : text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view()
                                             : text.substr(newline + 1);
    if (line.empty()) continue;
    auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      return common::Status::InvalidArgument(
          "metrics line " + std::to_string(line_number) + ": " +
          parsed.status().message());
    }
    const JsonValue& value = parsed.value();
    const std::string type = value.StringOr("type", "?");
    const std::string name = value.StringOr("name", "?");
    if (type == "histogram") {
      out << "  " << name << ": count "
          << Format("%.0f", value.NumberOr("count", 0.0)) << ", mean "
          << Format("%.4g",
                    value.NumberOr("count", 0.0) == 0.0
                        ? 0.0
                        : value.NumberOr("sum", 0.0) /
                              value.NumberOr("count", 1.0))
          << ", max " << Format("%.4g", value.NumberOr("max", 0.0)) << '\n';
    } else if (type == "sketch_histogram") {
      out << "  " << name << ": count "
          << Format("%.0f", value.NumberOr("count", 0.0)) << ", p50 "
          << Format("%.4g", value.NumberOr("p50", 0.0)) << ", p99 "
          << Format("%.4g", value.NumberOr("p99", 0.0)) << '\n';
    } else {
      out << "  " << name << ": "
          << Format("%.10g", value.NumberOr("value", 0.0)) << '\n';
    }
  }
  return out.str();
}

}  // namespace sketchml::dist
