#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <unordered_map>

#include "common/json.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sketchml::obs {
namespace {

using common::AppendJsonString;

constexpr size_t kDefaultRingCapacity = 1 << 14;  // Events per thread.

/// One thread's event ring. Only the owning thread appends; the short
/// per-ring mutex exists so the collector (and TSan) see consistent
/// events — in steady state it is uncontended and stays in the owner's
/// cache line.
struct Ring {
  explicit Ring(size_t capacity, uint32_t tid_in)
      : events(capacity), tid(tid_in) {}

  // Mutable so the collector can lock through the const pointers it
  // iterates (locking is not logical mutation).
  mutable common::Mutex mutex;
  std::vector<TraceEvent> events SKETCHML_GUARDED_BY(mutex);
  size_t next SKETCHML_GUARDED_BY(mutex) = 0;   // Append slot.
  size_t count SKETCHML_GUARDED_BY(mutex) = 0;  // Valid events (<= capacity).
  uint64_t dropped SKETCHML_GUARDED_BY(mutex) = 0;  // Lost to wraparound.
  uint32_t tid;

  void Append(const TraceEvent& event) SKETCHML_EXCLUDES(mutex) {
    common::MutexLock lock(mutex);
    if (count == events.size()) {
      ++dropped;
    } else {
      ++count;
    }
    events[next] = event;
    events[next].tid = tid;
    next = (next + 1) % events.size();
  }

  /// Oldest-first copy of the retained events.
  void CopyTo(std::vector<TraceEvent>* out) const SKETCHML_REQUIRES(mutex) {
    const size_t start = (next + events.size() - count) % events.size();
    for (size_t i = 0; i < count; ++i) {
      out->push_back(events[(start + i) % events.size()]);
    }
  }
};

struct Impl {
  mutable common::Mutex mutex;
  std::vector<Ring*> live SKETCHML_GUARDED_BY(mutex);
  std::vector<TraceEvent> retired_events SKETCHML_GUARDED_BY(mutex);
  uint64_t retired_dropped SKETCHML_GUARDED_BY(mutex) = 0;
  // Per-thread drop counts of retired rings (nonzero entries only), so
  // DroppedEventsByThread survives thread exit.
  std::vector<ThreadDroppedEvents> retired_dropped_by_tid
      SKETCHML_GUARDED_BY(mutex);
  uint32_t next_tid SKETCHML_GUARDED_BY(mutex) = 1;
  std::atomic<size_t> ring_capacity{kDefaultRingCapacity};
};

Impl& GetImpl() {
  // NOLINTNEXTLINE(sketchml-naked-new): leaked on purpose.
  static Impl* impl = new Impl;  // Leaked: outlives thread-local dtors.
  return *impl;
}

void RetireRing(Ring* ring) {
  Impl& impl = GetImpl();
  common::MutexLock lock(impl.mutex);
  {
    common::MutexLock ring_lock(ring->mutex);
    ring->CopyTo(&impl.retired_events);
    impl.retired_dropped += ring->dropped;
    if (ring->dropped > 0) {
      impl.retired_dropped_by_tid.push_back({ring->tid, ring->dropped});
    }
  }
  impl.live.erase(std::find(impl.live.begin(), impl.live.end(), ring));
  delete ring;  // NOLINT(sketchml-naked-new): end of TLS retire cycle.
}

struct TlsRing {
  Ring* ring = nullptr;
  ~TlsRing() {
    if (ring != nullptr) RetireRing(ring);
  }
};

Ring* ThisRing() {
  thread_local TlsRing tls;
  if (tls.ring == nullptr) {
    Impl& impl = GetImpl();
    common::MutexLock lock(impl.mutex);
    // NOLINTNEXTLINE(sketchml-naked-new): owned by the TLS retire cycle.
    auto* ring = new Ring(impl.ring_capacity.load(std::memory_order_relaxed),
                          impl.next_tid++);
    impl.live.push_back(ring);
    tls.ring = ring;
  }
  return tls.ring;
}

// ---------------------------------------------------------------------------
// Causal context: a global id counter, a per-thread stack of open span
// contexts (RAII-disciplined, so push/pop is strictly LIFO per thread),
// and an optional category filter.
// ---------------------------------------------------------------------------

std::atomic<uint64_t> g_next_id{1};

uint64_t NextId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

std::vector<SpanContext>& ThisContextStack() {
  thread_local std::vector<SpanContext> stack;
  return stack;
}

void PushContext(SpanContext ctx) { ThisContextStack().push_back(ctx); }

void PopContext() {
  std::vector<SpanContext>& stack = ThisContextStack();
  if (!stack.empty()) stack.pop_back();
}

/// Category filter. `active` is the hot-path gate (one relaxed load);
/// the list itself is only touched under the mutex, on the slow path.
struct CategoryFilter {
  std::atomic<bool> active{false};
  common::Mutex mutex;
  std::vector<std::string> allowed SKETCHML_GUARDED_BY(mutex);
};

CategoryFilter& GetCategoryFilter() {
  // NOLINTNEXTLINE(sketchml-naked-new): leaked on purpose (see Impl).
  static CategoryFilter* filter = new CategoryFilter;
  return *filter;
}

/// Fills the shared event fields and assigns causal identity: parent is
/// the thread's current context (or `parent` when explicitly provided),
/// and a parentless span roots a fresh trace.
void InitEvent(TraceEvent* event, const char* category, std::string_view name,
               SpanContext parent) {
  event->category = category;
  std::memcpy(event->name, name.data(),
              std::min<size_t>(name.size(), TraceEvent::kNameCapacity));
  event->span_id = NextId();
  if (parent.valid()) {
    event->trace_id = parent.trace_id;
    event->parent_span_id = parent.span_id;
  } else {
    event->trace_id = NextId();
    event->parent_span_id = 0;
  }
}

/// The event's args object, merging the stored key/value args with the
/// causal id triple (when present). Writes nothing for id-less events
/// with no args.
void AppendArgsObject(std::ostream& out, const TraceEvent& event) {
  if (event.num_args == 0 && event.trace_id == 0) return;
  char buf[96];
  out << ",\"args\":{";
  bool first = true;
  for (int i = 0; i < event.num_args; ++i) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, event.args[i].key);
    const double v =
        std::isfinite(event.args[i].value) ? event.args[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), ":%.17g", v);
    out << buf;
  }
  if (event.trace_id != 0) {
    if (!first) out << ',';
    std::snprintf(buf, sizeof(buf),
                  "\"trace_id\":%llu,\"span_id\":%llu,\"parent_span_id\":%llu",
                  static_cast<unsigned long long>(event.trace_id),
                  static_cast<unsigned long long>(event.span_id),
                  static_cast<unsigned long long>(event.parent_span_id));
    out << buf;
  }
  out << '}';
}

}  // namespace

SpanContext CurrentSpanContext() {
  const std::vector<SpanContext>& stack = ThisContextStack();
  return stack.empty() ? SpanContext{} : stack.back();
}

TraceContextScope::TraceContextScope(SpanContext ctx) {
  if (!TracingEnabled() || !ctx.valid()) return;
  PushContext(ctx);
  pushed_ = true;
}

TraceContextScope::~TraceContextScope() {
  if (pushed_) PopContext();
}

void SetTraceCategories(std::string_view csv) {
  CategoryFilter& filter = GetCategoryFilter();
  common::MutexLock lock(filter.mutex);
  filter.allowed.clear();
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view item = csv.substr(pos, comma - pos);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (!item.empty()) filter.allowed.emplace_back(item);
    pos = comma + 1;
  }
  filter.active.store(!filter.allowed.empty(), std::memory_order_relaxed);
}

bool TraceCategoryEnabled(const char* category) {
  CategoryFilter& filter = GetCategoryFilter();
  if (!filter.active.load(std::memory_order_relaxed)) return true;
  common::MutexLock lock(filter.mutex);
  for (const std::string& allowed : filter.allowed) {
    if (allowed == category) return true;
  }
  return false;
}

void TraceSpan::Begin(const char* category, std::string_view name) {
  active_ = true;
  InitEvent(&event_, category, name, CurrentSpanContext());
  PushContext(SpanContext{event_.trace_id, event_.span_id});
  event_.ts_ns = NowNs();
}

void TraceSpan::End() {
  event_.dur_ns = NowNs() - event_.ts_ns;
  PopContext();
  ThisRing()->Append(event_);
}

SpanContext EmitSpan(const char* category, std::string_view name,
                     uint64_t ts_ns, uint64_t dur_ns,
                     std::initializer_list<SpanArg> args) {
  return EmitSpanWithParent(category, name, ts_ns, dur_ns,
                            CurrentSpanContext(), args);
}

SpanContext EmitSpanWithParent(const char* category, std::string_view name,
                               uint64_t ts_ns, uint64_t dur_ns,
                               SpanContext parent,
                               std::initializer_list<SpanArg> args) {
  if (!TracingEnabled() || !TraceCategoryEnabled(category)) {
    return SpanContext{};
  }
  TraceEvent event;
  InitEvent(&event, category, name, parent);
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  for (const SpanArg& arg : args) {
    if (event.num_args >= TraceEvent::kMaxArgs) break;
    TraceEvent::Arg& slot = event.args[event.num_args++];
    std::strncpy(slot.key, arg.key, TraceEvent::kArgKeyCapacity);
    slot.value = arg.value;
  }
  ThisRing()->Append(event);
  return SpanContext{event.trace_id, event.span_id};
}

TraceLog& TraceLog::Global() {
  // NOLINTNEXTLINE(sketchml-naked-new): leaked singleton, safe at exit.
  static TraceLog* log = new TraceLog;
  return *log;
}

void TraceLog::SetRingCapacity(size_t events) {
  GetImpl().ring_capacity.store(std::max<size_t>(events, 16),
                                std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceLog::CollectEvents() const {
  Impl& impl = GetImpl();
  std::vector<TraceEvent> events;
  {
    common::MutexLock lock(impl.mutex);
    events = impl.retired_events;
    for (const Ring* ring : impl.live) {
      common::MutexLock ring_lock(ring->mutex);
      ring->CopyTo(&events);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

uint64_t TraceLog::DroppedEvents() const {
  Impl& impl = GetImpl();
  common::MutexLock lock(impl.mutex);
  uint64_t dropped = impl.retired_dropped;
  for (const Ring* ring : impl.live) {
    common::MutexLock ring_lock(ring->mutex);
    dropped += ring->dropped;
  }
  return dropped;
}

std::vector<ThreadDroppedEvents> TraceLog::DroppedEventsByThread() const {
  Impl& impl = GetImpl();
  std::vector<ThreadDroppedEvents> dropped;
  {
    common::MutexLock lock(impl.mutex);
    dropped = impl.retired_dropped_by_tid;
    for (const Ring* ring : impl.live) {
      common::MutexLock ring_lock(ring->mutex);
      if (ring->dropped > 0) dropped.push_back({ring->tid, ring->dropped});
    }
  }
  std::sort(dropped.begin(), dropped.end(),
            [](const ThreadDroppedEvents& a, const ThreadDroppedEvents& b) {
              return a.tid < b.tid;
            });
  return dropped;
}

void TraceLog::PublishDroppedEvents() const {
  static const Gauge gauge =
      MetricsRegistry::Global().GetGauge("trace/dropped_events");
  gauge.Set(static_cast<double>(DroppedEvents()));
  // Per-thread slices, registered lazily and only for threads that
  // actually dropped, so a clean run's metric dump carries no new slots.
  for (const ThreadDroppedEvents& entry : DroppedEventsByThread()) {
    MetricsRegistry::Global()
        .GetGauge("trace/dropped_events",
                  {{"thread", std::to_string(entry.tid)}})
        .Set(static_cast<double>(entry.dropped));
  }
}

void TraceLog::Reset() {
  Impl& impl = GetImpl();
  common::MutexLock lock(impl.mutex);
  impl.retired_events.clear();
  impl.retired_dropped = 0;
  impl.retired_dropped_by_tid.clear();
  for (Ring* ring : impl.live) {
    common::MutexLock ring_lock(ring->mutex);
    ring->next = 0;
    ring->count = 0;
    ring->dropped = 0;
  }
}

void TraceLog::WriteChromeTrace(std::ostream& out) const {
  const std::vector<TraceEvent> events = CollectEvents();
  const uint64_t dropped = DroppedEvents();
  // Span index for cross-thread parent lookups (flow arrows).
  std::unordered_map<uint64_t, const TraceEvent*> by_span_id;
  by_span_id.reserve(events.size());
  for (const TraceEvent& event : events) {
    if (event.span_id != 0) by_span_id.emplace(event.span_id, &event);
  }
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"sketchml\"}}";
  char buf[64];
  const auto append_ts_dur = [&](uint64_t ts_ns, uint64_t dur_ns) {
    // Chrome trace timestamps are microseconds; print with ns precision.
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(ts_ns) / 1e3,
                  static_cast<double>(dur_ns) / 1e3);
    out << buf;
  };
  for (const TraceEvent& event : events) {
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid;
    append_ts_dur(event.ts_ns, event.dur_ns);
    out << ",\"cat\":";
    AppendJsonString(out, event.category);
    out << ",\"name\":";
    AppendJsonString(out, event.name);
    AppendArgsObject(out, event);
    out << '}';
    // Parent on another thread: a flow pair draws the causal arrow from
    // the parent's slice to this span's begin in Perfetto. The start
    // point is this span's begin time clamped into the parent's slice
    // (flow starts may not precede their slice or follow their finish).
    if (event.parent_span_id != 0) {
      const auto parent_it = by_span_id.find(event.parent_span_id);
      if (parent_it != by_span_id.end() &&
          parent_it->second->tid != event.tid) {
        const TraceEvent& parent = *parent_it->second;
        uint64_t flow_ts =
            std::clamp(event.ts_ns, parent.ts_ns, parent.ts_ns + parent.dur_ns);
        flow_ts = std::min(flow_ts, event.ts_ns);
        out << ",\n{\"ph\":\"s\",\"pid\":1,\"tid\":" << parent.tid;
        append_ts_dur(flow_ts, 0);
        out << ",\"id\":" << event.span_id << ",\"cat\":";
        AppendJsonString(out, event.category);
        out << ",\"name\":";
        AppendJsonString(out, event.name);
        out << '}';
        out << ",\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << event.tid;
        append_ts_dur(event.ts_ns, 0);
        out << ",\"id\":" << event.span_id << ",\"cat\":";
        AppendJsonString(out, event.category);
        out << ",\"name\":";
        AppendJsonString(out, event.name);
        out << '}';
      }
    }
  }
  // Footer: how many spans the per-thread rings overwrote. A nonzero
  // count means the timeline is truncated — raise SetRingCapacity.
  out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"dropped_events\","
         "\"args\":{\"count\":"
      << dropped << "}}";
  out << "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":" << dropped
      << "}\n";
}

}  // namespace sketchml::obs
