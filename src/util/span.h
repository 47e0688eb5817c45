// Causal span tracing for the storage hierarchy — the system's one event
// recorder.
//
// The SpanTracer records *intervals with ancestry*: a demand fetch is one
// span whose children are the retry backoffs, the failover to a replica,
// the media swap on the jukebox lane and the final cache-line install — one
// navigable tree per tertiary access, which is exactly the decomposition
// the paper's tables 2-6 are about (robot vs. seek vs. transfer vs. cache).
// Moments that have no duration of their own (a CRC mismatch, an injected
// fault, an SLO breach) are *instants*: zero-duration records parented to
// the innermost open span, so they land inside the tree they interrupted.
//
// The simulation is single-threaded, so context propagation is implicit: a
// stack of open spans makes every Begin() a child of the innermost open
// span. Asynchronous hand-offs (the write-behind pipeline queues an op now
// and issues it later) capture a TraceContext at enqueue time and start the
// issue-time span as BeginChildOf(captured parent), preserving causality
// across the queue. Device operations whose completion time is known at
// issue time (Resource scheduling) are recorded with AddComplete.
//
// Hot-path cost: span name/track strings (and annotation keys) are interned
// once into the root tracer's string table — records carry string_views into
// that table, so opening/closing a span allocates nothing once the working
// set of names is warm. Completed records live in a fixed ring (not a deque
// of heap-owning records), and per-span args use inline SmallVec storage.
// JSON/Perfetto rendering reads the interned views back at export time.
//
// Observation never perturbs the simulation: the tracer only *reads* the
// SimClock. Bench tables are bit-identical with tracing on or off.

#ifndef HIGHLIGHT_UTIL_SPAN_H_
#define HIGHLIGHT_UTIL_SPAN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_clock.h"
#include "util/small_vec.h"

namespace hl {

using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

class SpanTracer;

// A captured position in the span tree, for asynchronous hand-offs: the
// enqueuer captures its context, the issuer begins children under it.
struct TraceContext {
  SpanTracer* tracer = nullptr;
  SpanId span = kNoSpan;
};

// One span arg. The key view points into the owning tracer's intern table
// (stable for the tracer's lifetime); the value is owned (usually a short
// number, so it rides the std::string SSO buffer without allocating).
using SpanArg = std::pair<std::string_view, std::string>;

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  SimTime begin_us = 0;
  SimTime end_us = 0;
  // Interned: views into the owning (root) tracer's string table. What
  // happened ("fetch", "retry") and its timeline lane ("io", "jukebox...").
  std::string_view name;
  std::string_view track;
  SmallVec<SpanArg, 4> args;

  SimTime duration_us() const {
    return end_us >= begin_us ? end_us - begin_us : 0;
  }
  // Instants carry no id of their own (nothing nests under or annotates a
  // point in time), which is what tells them apart from spans.
  bool instant() const { return id == kNoSpan; }
};

// Bounded collector of completed spans and instants (oldest dropped beyond
// `capacity`) plus the stack of currently-open spans. Single-threaded; no
// locking.
//
// A tracer can also be constructed as a *view* over another tracer: every
// operation forwards to the delegate with the view's track prefix applied,
// and the open-span stack, completed window and ids are the delegate's. A
// federation of deployments sharing one core tracer through per-deployment
// views ("shard0.", "siteA.") therefore produces one causal span tree
// spanning all of them — a stager dispatch that opens a span and then calls
// into a shard nests the shard's spans under it automatically, because both
// sides push onto the same implicit-context stack.
class SpanTracer {
 public:
  explicit SpanTracer(SimClock* clock, size_t capacity = 4096);
  // View constructor: forwards every operation to `delegate`, prefixing
  // span tracks with `track_prefix` (e.g. "siteA." turns track "service"
  // into "siteA.service" — its own lane in the merged timeline). The
  // delegate must outlive the view. Prefixed track names are interned once
  // per distinct raw track, not rebuilt per span.
  SpanTracer(SpanTracer* delegate, std::string track_prefix);

  // Opens a span as a child of the innermost open span (the stack top).
  SpanId Begin(std::string_view name, std::string_view track);
  // Opens a span under an explicit parent (asynchronous causality); the new
  // span still joins the stack so its own callees nest under it.
  SpanId BeginChildOf(SpanId parent, std::string_view name,
                      std::string_view track);
  // Attaches a key/value argument to an open span, or to a recently
  // completed one still in the window (device spans added with AddComplete
  // are annotated right after the fact).
  void Annotate(SpanId id, std::string_view key, std::string_view value);
  // Closes the span at the current sim time. Closing a span that still has
  // open descendants closes those descendants too (defensive unwind).
  void End(SpanId id);
  // Records an already-timed span directly — for device operations whose
  // begin/end are known at issue time (Resource scheduling may complete in
  // the simulated future without the clock having advanced there yet).
  // Returns the new span's id, usable with Annotate.
  SpanId AddComplete(std::string_view name, std::string_view track,
                     SpanId parent, SimTime begin_us, SimTime end_us);
  // Records a zero-duration instant at the current sim time on `track`,
  // parented to the innermost open span, with up to two named integer args
  // (an empty key omits its arg). It joins the completed window like a
  // span and is evicted the same way.
  void Instant(std::string_view name, std::string_view track,
               std::string_view a_key = {}, uint64_t a = 0,
               std::string_view b_key = {}, uint64_t b = 0) {
    InstantChildOf(current(), name, track, a_key, a, b_key, b);
  }
  // An instant under an explicit parent: a decision taken on behalf of a
  // queued request joins that request's tree (asynchronous hand-off).
  void InstantChildOf(SpanId parent, std::string_view name,
                      std::string_view track, std::string_view a_key = {},
                      uint64_t a = 0, std::string_view b_key = {},
                      uint64_t b = 0);

  // Interns `s` into the root tracer's string table, returning its small
  // integer id — the MetricsRegistry slot pattern. Begin/Annotate intern
  // implicitly; hot callers may pre-intern and the table answers repeat
  // lookups without allocating.
  uint32_t InternId(std::string_view s);
  // The stable view for an interned id (valid for the tracer's lifetime).
  std::string_view ViewOf(uint32_t id) const;
  // Distinct strings interned so far (engine.* gauge material).
  size_t interned_strings() const;
  // Bytes currently reserved by the completed-span ring.
  size_t window_bytes() const;

  // The innermost open span (kNoSpan when idle).
  SpanId current() const {
    if (delegate_ != nullptr) {
      return delegate_->current();
    }
    return stack_.empty() ? kNoSpan : stack_.back();
  }
  TraceContext Capture() { return TraceContext{this, current()}; }

  size_t capacity() const {
    return delegate_ != nullptr ? delegate_->capacity() : capacity_;
  }
  size_t open_count() const {
    return delegate_ != nullptr ? delegate_->open_count() : open_.size();
  }
  // True when no span is open and the implicit-context stack is empty — the
  // end-of-run invariant the leak checks assert (a missed SpanScope unwind
  // would leave residue here and silently mis-parent later spans).
  bool quiescent() const {
    if (delegate_ != nullptr) {
      return delegate_->quiescent();
    }
    return open_.empty() && stack_.empty();
  }
  // Lifetime count of completed spans and instants, including dropped ones.
  uint64_t total_spans() const {
    return delegate_ != nullptr ? delegate_->total_spans() : total_;
  }
  // The tracer actually holding the spans (self unless this is a view).
  const SpanTracer* root() const {
    return delegate_ != nullptr ? delegate_->root() : this;
  }

  // Read-only window over the completed-span ring, oldest completion first.
  // Deque-shaped surface (size/front/back/[]/iteration) so consumers read
  // it like the container it replaced.
  class CompletedView {
   public:
    class iterator {
     public:
      using value_type = SpanRecord;
      using reference = const SpanRecord&;
      using pointer = const SpanRecord*;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::forward_iterator_tag;

      iterator(const SpanTracer* t, size_t i) : t_(t), i_(i) {}
      reference operator*() const { return t_->CompletedAt(i_); }
      pointer operator->() const { return &t_->CompletedAt(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const SpanTracer* t_;
      size_t i_;
    };

    explicit CompletedView(const SpanTracer* t) : t_(t) {}
    size_t size() const { return t_->CompletedCount(); }
    bool empty() const { return size() == 0; }
    const SpanRecord& operator[](size_t i) const { return t_->CompletedAt(i); }
    const SpanRecord& front() const { return t_->CompletedAt(0); }
    const SpanRecord& back() const { return t_->CompletedAt(size() - 1); }
    iterator begin() const { return iterator(t_, 0); }
    iterator end() const { return iterator(t_, size()); }

   private:
    const SpanTracer* t_;
  };

  // The surviving window of completed spans and instants, oldest
  // completion first.
  CompletedView Completed() const { return CompletedView(root()); }
  // The `n` longest completed spans, slowest first.
  std::vector<SpanRecord> Slowest(size_t n) const;

  void Clear();

  // [{"id":..,"parent":..,"begin_us":..,"end_us":..,"name":..,...}, ...].
  std::string ToJson(size_t max_records) const;

 private:
  friend class CompletedView;

  SpanRecord* FindOpen(SpanId id);
  void Retire(SpanRecord&& rec);
  size_t CompletedCount() const { return done_.size(); }
  const SpanRecord& CompletedAt(size_t i) const {
    return done_[(done_head_ + i) % done_.size()];
  }
  SpanRecord& MutableCompletedAt(size_t i) {
    return done_[(done_head_ + i) % done_.size()];
  }
  // Applies this view's prefix to `track`, interning the combined name once
  // per distinct raw track (view tracers only).
  std::string_view PrefixTrack(std::string_view track);

  SimClock* clock_ = nullptr;
  size_t capacity_ = 0;
  SpanTracer* delegate_ = nullptr;  // Non-null when this is a view.
  std::string prefix_;              // View track prefix ("siteA.").
  std::vector<SpanRecord> open_;  // Open spans, begin order.
  std::vector<SpanId> stack_;     // Implicit-context stack.
  std::vector<SpanRecord> done_;  // Ring of completed spans.
  size_t done_head_ = 0;          // Oldest record once the ring wrapped.
  SpanId next_id_ = 1;
  uint64_t total_ = 0;
  // Intern table (root tracers only): owned strings with stable addresses,
  // the id->view index, and the lookup map keyed by views into strings_.
  std::deque<std::string> strings_;
  std::vector<std::string_view> views_;
  std::map<std::string_view, uint32_t> ids_;
  // View tracers: root-interned raw-track id -> root-interned prefixed id.
  std::vector<uint32_t> prefixed_tracks_;
};

// RAII span: opens on construction, closes on destruction; every operation
// no-ops on a null tracer, so uninstrumented standalone components cost
// nothing. Move-only (the mover takes over the End()).
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(SpanTracer* tracer, std::string_view name, std::string_view track)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(name, track);
    }
  }
  // Child of an explicit parent (asynchronous hand-off).
  SpanScope(SpanTracer* tracer, SpanId parent, std::string_view name,
            std::string_view track)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginChildOf(parent, name, track);
    }
  }
  ~SpanScope() { Close(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&& other) noexcept
      : tracer_(other.tracer_), id_(other.id_) {
    other.tracer_ = nullptr;
    other.id_ = kNoSpan;
  }
  SpanScope& operator=(SpanScope&& other) noexcept {
    if (this != &other) {
      Close();
      tracer_ = other.tracer_;
      id_ = other.id_;
      other.tracer_ = nullptr;
      other.id_ = kNoSpan;
    }
    return *this;
  }

  void Annotate(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) {
      tracer_->Annotate(id_, key, value);
    }
  }
  SpanId id() const { return id_; }
  explicit operator bool() const { return tracer_ != nullptr; }

 private:
  void Close() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
      tracer_ = nullptr;
    }
  }

  SpanTracer* tracer_ = nullptr;
  SpanId id_ = kNoSpan;
};

// Null-safe SpanTracer::Instant: components built without a tracer record
// into the void at zero cost.
inline void RecordInstant(SpanTracer* tracer, std::string_view name,
                          std::string_view track, std::string_view a_key = {},
                          uint64_t a = 0, std::string_view b_key = {},
                          uint64_t b = 0) {
  if (tracer != nullptr) {
    tracer->Instant(name, track, a_key, a, b_key, b);
  }
}

using Tracer = SpanTracer*;  // hlbench only.

// Text rendering of the completed-span forest: children indented under
// parents, durations and args inline (the hlfs_inspect --spans view).
std::string RenderSpanForest(const SpanTracer::CompletedView& spans);

// Chrome/Perfetto trace-event export. AppendPerfettoSpanEvents emits one
// complete-event ("ph":"X", ts/dur in sim-µs) per span and one thread-scoped
// instant event ("ph":"i") per instant, plus process_name / thread_name
// metadata, one thread lane per distinct track, under process `pid`;
// PerfettoTraceJson wraps accumulated events into the final
// {"traceEvents": [...]} document chrome://tracing and ui.perfetto.dev load.
void AppendPerfettoSpanEvents(const SpanTracer& spans, int pid,
                              const std::string& process_name,
                              std::string* out);
std::string PerfettoTraceJson(const std::string& events);

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_SPAN_H_
