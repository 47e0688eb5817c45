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
// Hot-path cost: a record is a flat, trivially copyable value that owns no
// heap memory. Span names, tracks and argument keys are interned once into
// the root tracer's string table (an O(1) open-addressing hash lookup), and
// the record keeps the ids plus views into that table; a view tracer maps a
// raw track id to its prefixed id without building a string. An argument
// is typed: an integer is stored as an integer, a name (tenant, site, peer,
// outcome, state) as its intern id, so annotating a span formats and copies
// no string. Up to kSpanArgCapacity arguments live inline; annotations past
// that are counted on the record and shown by every exporter as a last
// `args_dropped` argument, never lost without a trace. Completed records
// are copied into a ring reserved once (its pages are touched only as
// records land), so once the names are warm no span operation allocates.
// The exporters print an integer exactly as std::to_string of its type
// would, and escape each interned string once per export, not per event.
//
// Observation never perturbs the simulation: the tracer only *reads* the
// SimClock. Bench tables are bit-identical with tracing on or off.

#ifndef HIGHLIGHT_UTIL_SPAN_H_
#define HIGHLIGHT_UTIL_SPAN_H_

#include <concepts>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/sim_clock.h"

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

// The widest span in the catalogue (antientropy_round) carries five.
inline constexpr size_t kSpanArgCapacity = 5;

// One span argument: an interned key and a typed value. 16 bytes, no heap.
struct SpanArg {
  enum class Kind : uint8_t { kUnsigned, kSigned, kName };
  uint32_t key = 0;  // Intern id of the key.
  Kind kind = Kind::kUnsigned;
  // The integer (a signed one in two's complement) or a name's intern id.
  uint64_t value = 0;
};

// A record's inline arguments, in annotation order.
struct SpanArgs {
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const SpanArg& operator[](size_t i) const { return items[i]; }
  const SpanArg* begin() const { return items; }
  const SpanArg* end() const { return items + count; }
  // Appends `arg`, or counts it in `dropped` when the record is full.
  void Add(const SpanArg& arg);

  SpanArg items[kSpanArgCapacity];
  uint8_t count = 0;
  // Annotations that found the record full (saturating at 255). Every
  // exporter prints a nonzero count as a last `args_dropped` argument.
  uint8_t dropped = 0;
};

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  SimTime begin_us = 0;
  SimTime end_us = 0;
  // Interned: views into the owning (root) tracer's string table and their
  // ids. What happened ("fetch", "retry") and its timeline lane ("io",
  // "jukebox...").
  std::string_view name;
  std::string_view track;
  uint32_t name_id = 0;
  uint32_t track_id = 0;
  SpanArgs args;

  SimTime duration_us() const {
    return end_us >= begin_us ? end_us - begin_us : 0;
  }
  // Instants carry no id of their own (nothing nests under or annotates a
  // point in time), which is what tells them apart from spans.
  bool instant() const { return id == kNoSpan; }
};
static_assert(std::is_trivially_copyable_v<SpanRecord>);

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
  // Attaches a key/value argument to an open span, or to the newest
  // completed record (a device span added with AddComplete is annotated
  // right after the fact); any other id is ignored. A string value is a
  // name and is interned; an integer is stored as itself and exported as
  // std::to_string of its type prints it.
  void Annotate(SpanId id, std::string_view key, std::string_view value);
  template <std::integral T>
  void Annotate(SpanId id, std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      AddArg(id, key, SpanArg::Kind::kSigned,
             static_cast<uint64_t>(static_cast<int64_t>(value)));
    } else {
      AddArg(id, key, SpanArg::Kind::kUnsigned, static_cast<uint64_t>(value));
    }
  }
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
  // An argument's key, and its value as the exporters print it.
  std::string_view ArgKey(const SpanArg& arg) const { return ViewOf(arg.key); }
  std::string ArgValue(const SpanArg& arg) const;
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
    // The root tracer holding the records (and their interned strings).
    const SpanTracer& tracer() const { return *t_; }
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

  SpanTracer* Root() { return delegate_ != nullptr ? delegate_->Root() : this; }
  // The id of `track` with this view's prefix applied (and every enclosing
  // view's), interned the first time each raw track is seen.
  uint32_t TrackId(std::string_view track);
  // Root tracers only: the id-based bodies of the public operations.
  SpanId Open(SpanId parent, uint32_t name, uint32_t track);
  // Copies a completed record into the ring (over the oldest one once
  // the ring is full) and returns its slot.
  SpanRecord& Retire(const SpanRecord& rec);
  SpanRecord& Push(SpanId id, SpanId parent, SimTime begin_us,
                   SimTime end_us, uint32_t name, uint32_t track);
  void AddArg(SpanId id, std::string_view key, SpanArg::Kind kind,
              uint64_t value);
  SpanRecord* FindAnnotatable(SpanId id);
  size_t CompletedCount() const { return done_.size(); }
  const SpanRecord& CompletedAt(size_t i) const {
    const size_t at = done_head_ + i;
    return done_[at < done_.size() ? at : at - done_.size()];
  }

  SimClock* clock_ = nullptr;
  size_t capacity_ = 0;
  SpanTracer* delegate_ = nullptr;  // Non-null when this is a view.
  std::string prefix_;              // View track prefix ("siteA.").
  std::vector<SpanRecord> open_;  // Open spans, begin order.
  std::vector<SpanId> stack_;     // Implicit-context stack.
  // Ring of completed spans, reserved to `capacity_` at construction.
  std::vector<SpanRecord> done_;
  size_t done_head_ = 0;  // Oldest record once the ring wrapped.
  SpanRecord* newest_ = nullptr;  // The last record retired.
  SpanId next_id_ = 1;
  uint64_t total_ = 0;
  // Intern table (root tracers only): owned strings with stable addresses,
  // the id->view index, and an open-addressing hash index over views_
  // (a power-of-two slot count, each slot id + 1 or 0 when empty).
  std::deque<std::string> strings_;
  std::vector<std::string_view> views_;
  std::vector<uint32_t> index_;
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
  template <std::integral T>
  void Annotate(std::string_view key, T value) {
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
// {"traceEvents": [...]} document chrome://tracing and ui.perfetto.dev load,
// copying the events once, into the document.
void AppendPerfettoSpanEvents(const SpanTracer& spans, int pid,
                              const std::string& process_name,
                              std::string* out);
std::string PerfettoTraceJson(std::string_view events);

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_SPAN_H_
