#include "util/span.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>

#include "util/metrics.h"

namespace hl {

SpanTracer::SpanTracer(SimClock* clock, size_t capacity)
    : clock_(clock), capacity_(capacity == 0 ? 1 : capacity), index_(64, 0) {
  // Reserved, not touched: a slot's pages become resident as records land,
  // and records never move, so `newest_` stays valid.
  done_.reserve(capacity_);
}

SpanTracer::SpanTracer(SpanTracer* delegate, std::string track_prefix)
    : delegate_(delegate), prefix_(std::move(track_prefix)) {}

namespace {

// The `N` bytes at `p` as one integer.
template <size_t N>
uint64_t LoadWord(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, N);
  return w;
}

// A multiplicative hash over at most a few word loads: the interned
// strings are short names, and the index only needs them spread over its
// slots (a collision costs one more probe, never a wrong id).
uint64_t HashName(std::string_view s) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  auto mix = [](uint64_t x) {
    x *= kMul;
    return x ^ (x >> 32);
  };
  const char* p = s.data();
  const size_t n = s.size();
  uint64_t h = mix(n + 1);
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      h = mix(h ^ LoadWord<8>(p + i));
    }
    return mix(h ^ LoadWord<8>(p + n - 8));
  }
  if (n >= 4) {
    return mix(h ^ LoadWord<4>(p) ^ (LoadWord<4>(p + n - 4) << 32));
  }
  if (n > 0) {
    return mix(h ^ LoadWord<1>(p) ^ (LoadWord<1>(p + n / 2) << 8) ^
               (LoadWord<1>(p + n - 1) << 16));
  }
  return h;
}

}  // namespace

uint32_t SpanTracer::InternId(std::string_view s) {
  if (delegate_ != nullptr) {
    return delegate_->InternId(s);
  }
  // Open addressing with linear probing; a slot holds id + 1, 0 is empty.
  const size_t mask = index_.size() - 1;
  size_t slot = HashName(s) & mask;
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    if (views_[index_[slot] - 1] == s) {
      return index_[slot] - 1;
    }
  }
  const uint32_t id = static_cast<uint32_t>(views_.size());
  views_.push_back(strings_.emplace_back(s));
  index_[slot] = id + 1;
  if (views_.size() * 2 > index_.size()) {
    // Keep the load at or under a half: double and re-place every id.
    std::vector<uint32_t> grown(index_.size() * 2, 0);
    for (uint32_t i = 0; i < views_.size(); ++i) {
      size_t at = HashName(views_[i]) & (grown.size() - 1);
      while (grown[at] != 0) {
        at = (at + 1) & (grown.size() - 1);
      }
      grown[at] = i + 1;
    }
    index_ = std::move(grown);
  }
  return id;
}

std::string_view SpanTracer::ViewOf(uint32_t id) const {
  if (delegate_ != nullptr) {
    return delegate_->ViewOf(id);
  }
  return views_[id];
}

size_t SpanTracer::interned_strings() const {
  return delegate_ != nullptr ? delegate_->interned_strings() : views_.size();
}

size_t SpanTracer::window_bytes() const {
  if (delegate_ != nullptr) {
    return delegate_->window_bytes();
  }
  return done_.capacity() * sizeof(SpanRecord);
}

uint32_t SpanTracer::TrackId(std::string_view track) {
  if (delegate_ == nullptr) {
    return InternId(track);
  }
  // Map the root-interned raw track id to the prefixed id, building
  // "prefix + track" only the first time each track is seen.
  const uint32_t raw = InternId(track);
  if (raw < prefixed_tracks_.size() && prefixed_tracks_[raw] != UINT32_MAX) {
    return prefixed_tracks_[raw];
  }
  const uint32_t prefixed = delegate_->TrackId(prefix_ + std::string(track));
  if (prefixed_tracks_.size() <= raw) {
    prefixed_tracks_.resize(raw + 1, UINT32_MAX);
  }
  prefixed_tracks_[raw] = prefixed;
  return prefixed;
}

SpanId SpanTracer::Begin(std::string_view name, std::string_view track) {
  return BeginChildOf(current(), name, track);
}

SpanId SpanTracer::BeginChildOf(SpanId parent, std::string_view name,
                                std::string_view track) {
  const uint32_t track_id = TrackId(track);
  return Root()->Open(parent, InternId(name), track_id);
}

SpanId SpanTracer::Open(SpanId parent, uint32_t name, uint32_t track) {
  const SimTime now = clock_ != nullptr ? clock_->Now() : 0;
  const SpanRecord& rec = open_.emplace_back(
      SpanRecord{.id = next_id_++, .parent = parent, .begin_us = now,
                 .name = views_[name], .track = views_[track],
                 .name_id = name, .track_id = track, .args = {}});
  stack_.push_back(rec.id);
  return rec.id;
}

SpanRecord& SpanTracer::Push(SpanId id, SpanId parent, SimTime begin_us,
                             SimTime end_us, uint32_t name, uint32_t track) {
  return Retire(SpanRecord{.id = id, .parent = parent, .begin_us = begin_us,
                           .end_us = end_us, .name = views_[name],
                           .track = views_[track], .name_id = name,
                           .track_id = track, .args = {}});
}

SpanRecord& SpanTracer::Retire(const SpanRecord& rec) {
  ++total_;
  if (done_.size() < capacity_) {
    newest_ = &done_.emplace_back(rec);
    return *newest_;
  }
  // Ring is full: the record takes the oldest slot.
  newest_ = &done_[done_head_];
  if (++done_head_ == done_.size()) {
    done_head_ = 0;
  }
  *newest_ = rec;
  return *newest_;
}

SpanRecord* SpanTracer::FindAnnotatable(SpanId id) {
  if (id == kNoSpan) {
    return nullptr;  // Never match an instant in the window.
  }
  // A device span added with AddComplete is annotated right after the
  // fact, while it is still the newest completed record.
  if (newest_ != nullptr && newest_->id == id) {
    return newest_;
  }
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id == id) {
      return &*it;
    }
  }
  return nullptr;
}

void SpanTracer::Annotate(SpanId id, std::string_view key,
                          std::string_view value) {
  AddArg(id, key, SpanArg::Kind::kName, InternId(value));
}

void SpanTracer::AddArg(SpanId id, std::string_view key, SpanArg::Kind kind,
                        uint64_t value) {
  SpanTracer* root = Root();
  if (SpanRecord* rec = root->FindAnnotatable(id)) {
    rec->args.Add(
        SpanArg{.key = root->InternId(key), .kind = kind, .value = value});
  }
}

void SpanArgs::Add(const SpanArg& arg) {
  if (count < kSpanArgCapacity) {
    items[count++] = arg;
  } else if (dropped < UINT8_MAX) {
    ++dropped;
  }
}

void SpanTracer::End(SpanId id) {
  if (delegate_ != nullptr) {
    delegate_->End(id);
    return;
  }
  if (id == kNoSpan) {
    return;
  }
  const SimTime now = clock_ != nullptr ? clock_->Now() : 0;
  // Defensive unwind: a span ended while descendants are still open (an
  // error path skipped their End) closes everything begun after it.
  size_t idx = open_.size();
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id == id) {
      idx = i;
      break;
    }
  }
  if (idx == open_.size()) {
    return;  // Unknown or already-ended span.
  }
  for (size_t i = open_.size(); i-- > idx;) {
    open_[i].end_us = now;
    Retire(open_[i]);
    open_.pop_back();
  }
  while (!stack_.empty()) {
    bool ended = stack_.back() == id;
    // Everything above `id` on the stack was just retired with it.
    stack_.pop_back();
    if (ended) {
      break;
    }
  }
}

SpanId SpanTracer::AddComplete(std::string_view name, std::string_view track,
                               SpanId parent, SimTime begin_us,
                               SimTime end_us) {
  const uint32_t track_id = TrackId(track);
  SpanTracer* root = Root();
  return root
      ->Push(root->next_id_++, parent, begin_us, end_us, root->InternId(name),
             track_id)
      .id;
}

void SpanTracer::InstantChildOf(SpanId parent, std::string_view name,
                                std::string_view track,
                                std::string_view a_key, uint64_t a,
                                std::string_view b_key, uint64_t b) {
  const uint32_t track_id = TrackId(track);
  SpanTracer* root = Root();
  const uint32_t name_id = root->InternId(name);
  const SimTime now = root->clock_ != nullptr ? root->clock_->Now() : 0;
  SpanRecord& rec = root->Push(kNoSpan, parent, now, now, name_id, track_id);
  if (!a_key.empty()) {
    rec.args.Add(SpanArg{.key = root->InternId(a_key),
                         .kind = SpanArg::Kind::kUnsigned, .value = a});
  }
  if (!b_key.empty()) {
    rec.args.Add(SpanArg{.key = root->InternId(b_key),
                         .kind = SpanArg::Kind::kUnsigned, .value = b});
  }
}

std::vector<SpanRecord> SpanTracer::Slowest(size_t n) const {
  if (delegate_ != nullptr) {
    return delegate_->Slowest(n);
  }
  std::vector<SpanRecord> all;
  all.reserve(done_.size());
  for (size_t i = 0; i < done_.size(); ++i) {
    all.push_back(CompletedAt(i));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.duration_us() > b.duration_us();
                   });
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

void SpanTracer::Clear() {
  if (delegate_ != nullptr) {
    delegate_->Clear();
    return;
  }
  open_.clear();
  stack_.clear();
  done_.clear();
  done_head_ = 0;
  newest_ = nullptr;
  total_ = 0;
}

namespace {

// An argument's value as text: an integer in decimal (what std::to_string
// of its type printed), a name as interned.
void AppendValue(const SpanTracer& root, const SpanArg& arg,
                 std::string* out) {
  switch (arg.kind) {
    case SpanArg::Kind::kUnsigned:
      AppendDecimal(out, arg.value);
      break;
    case SpanArg::Kind::kSigned:
      AppendDecimal(out, static_cast<int64_t>(arg.value));
      break;
    case SpanArg::Kind::kName:
      *out += root.ViewOf(static_cast<uint32_t>(arg.value));
      break;
  }
}

// The JSON-escaped text of each interned string, escaped on first use: an
// export escapes a name once, however many events carry it.
class EscapedStrings {
 public:
  explicit EscapedStrings(const SpanTracer& root)
      : root_(root), text_(root.interned_strings()) {}

  const std::string& operator[](uint32_t id) {
    if (!text_[id]) {
      text_[id] = JsonEscape(std::string(root_.ViewOf(id)));
    }
    return *text_[id];
  }

  // The record's arguments as `"key": "value"` pairs (an integer needs no
  // escaping), then `"args_dropped": "N"` when annotations overflowed it;
  // each pair follows ", " unless it is the first and `leading` is false.
  void AppendArgs(const SpanRecord& r, bool leading, std::string* out) {
    for (const SpanArg& arg : r.args) {
      *out += leading ? ", \"" : "\"";
      leading = true;
      *out += (*this)[arg.key];
      *out += "\": \"";
      if (arg.kind == SpanArg::Kind::kName) {
        *out += (*this)[static_cast<uint32_t>(arg.value)];
      } else {
        AppendValue(root_, arg, out);
      }
      *out += '"';
    }
    if (r.args.dropped > 0) {
      *out += leading ? ", \"args_dropped\": \"" : "\"args_dropped\": \"";
      AppendDecimal(out, r.args.dropped);
      *out += '"';
    }
  }

 private:
  const SpanTracer& root_;
  std::vector<std::optional<std::string>> text_;
};

}  // namespace

std::string SpanTracer::ArgValue(const SpanArg& arg) const {
  std::string out;
  AppendValue(*root(), arg, &out);
  return out;
}

std::string SpanTracer::ToJson(size_t max_records) const {
  if (delegate_ != nullptr) {
    return delegate_->ToJson(max_records);
  }
  const size_t take = std::min(max_records, done_.size());
  const size_t start = done_.size() - take;
  EscapedStrings escaped(*this);
  std::string out;
  out.reserve(4 + take * 192);
  out += '[';
  for (size_t i = 0; i < take; ++i) {
    const SpanRecord& r = CompletedAt(start + i);
    out += "\n  {\"id\": ";
    AppendDecimal(&out, r.id);
    out += ", \"parent\": ";
    AppendDecimal(&out, r.parent);
    out += ", \"begin_us\": ";
    AppendDecimal(&out, r.begin_us);
    out += ", \"end_us\": ";
    AppendDecimal(&out, r.end_us);
    out += ", \"name\": \"";
    out += escaped[r.name_id];
    out += "\", \"track\": \"";
    out += escaped[r.track_id];
    out += "\", \"args\": {";
    escaped.AppendArgs(r, /*leading=*/false, &out);
    out += "}}";
    if (i + 1 < take) {
      out += ',';
    }
  }
  out += "\n]";
  return out;
}

std::string RenderSpanForest(const SpanTracer::CompletedView& spans) {
  std::map<SpanId, const SpanRecord*> by_id;
  std::map<SpanId, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoSpan && by_id.count(s.parent) > 0) {
      children[s.parent].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  // Children sort by begin time so the tree reads chronologically.
  auto by_begin = [](const SpanRecord* a, const SpanRecord* b) {
    return a->begin_us < b->begin_us ||
           (a->begin_us == b->begin_us && a->id < b->id);
  };
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_begin);
  }
  std::sort(roots.begin(), roots.end(), by_begin);

  const SpanTracer& root = spans.tracer();
  std::string out;
  out.reserve(spans.size() * 96);
  std::function<void(const SpanRecord*, int)> emit =
      [&](const SpanRecord* s, int depth) {
        out.append(static_cast<size_t>(depth) * 2, ' ');
        out += s->name;
        out += " [";
        out += s->track;
        out += "] ";
        if (s->instant()) {
          out += "instant";
        } else {
          AppendDecimal(&out, s->duration_us());
          out += "us";
        }
        out += " @";
        AppendDecimal(&out, s->begin_us);
        for (const SpanArg& arg : s->args) {
          out += ' ';
          out += root.ArgKey(arg);
          out += '=';
          AppendValue(root, arg, &out);
        }
        if (s->args.dropped > 0) {
          out += " args_dropped=";
          AppendDecimal(&out, s->args.dropped);
        }
        out += '\n';
        auto it = children.find(s->id);
        if (it != children.end()) {
          for (const SpanRecord* kid : it->second) {
            emit(kid, depth + 1);
          }
        }
      };
  for (const SpanRecord* r : roots) {
    emit(r, 0);
  }
  return out;
}

void AppendPerfettoSpanEvents(const SpanTracer& spans, int pid,
                              const std::string& process_name,
                              std::string* out) {
  const SpanTracer& root = *spans.root();
  const SpanTracer::CompletedView done = root.Completed();
  // One thread lane per distinct track, numbered in first-appearance order;
  // the lanes' metadata events go out in track-name order.
  std::vector<int> tid_of(root.interned_strings(), 0);
  std::vector<uint32_t> lanes;
  for (const SpanRecord& s : done) {
    if (tid_of[s.track_id] == 0) {
      lanes.push_back(s.track_id);
      tid_of[s.track_id] = static_cast<int>(lanes.size());
    }
  }
  std::sort(lanes.begin(), lanes.end(), [&root](uint32_t a, uint32_t b) {
    return root.ViewOf(a) < root.ViewOf(b);
  });

  EscapedStrings escaped(root);
  std::string pid_text;
  AppendDecimal(&pid_text, pid);
  out->reserve(out->size() + (lanes.size() + 1) * 112 + done.size() * 224);
  *out += "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ";
  *out += pid_text;
  *out += ", \"tid\": 0, \"args\": {\"name\": \"";
  *out += JsonEscape(process_name);
  *out += "\"}},\n";
  for (uint32_t track : lanes) {
    *out += "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": ";
    *out += pid_text;
    *out += ", \"tid\": ";
    AppendDecimal(out, tid_of[track]);
    *out += ", \"args\": {\"name\": \"";
    *out += escaped[track];
    *out += "\"}},\n";
  }
  for (const SpanRecord& s : done) {
    // A span is a complete event; an instant is a thread-scoped instant
    // event on its track's lane, carrying its parent span instead of an id.
    *out += s.instant() ? "  {\"ph\": \"i\", \"s\": \"t\"" : "  {\"ph\": \"X\"";
    *out += ", \"name\": \"";
    *out += escaped[s.name_id];
    *out += "\", \"cat\": \"";
    *out += escaped[s.track_id];
    *out += "\", \"ts\": ";
    AppendDecimal(out, s.begin_us);
    if (!s.instant()) {
      *out += ", \"dur\": ";
      AppendDecimal(out, s.duration_us());
    }
    *out += ", \"pid\": ";
    *out += pid_text;
    *out += ", \"tid\": ";
    AppendDecimal(out, tid_of[s.track_id]);
    *out += ", \"args\": {";
    if (!s.instant()) {
      *out += "\"span_id\": ";
      AppendDecimal(out, s.id);
      *out += ", ";
    }
    *out += "\"parent\": ";
    AppendDecimal(out, s.parent);
    escaped.AppendArgs(s, /*leading=*/true, out);
    *out += "}},\n";
  }
}

std::string PerfettoTraceJson(std::string_view events) {
  constexpr std::string_view kHead =
      "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  constexpr std::string_view kTail = "]}\n";
  // Strip the trailing comma the appenders leave behind.
  std::string_view body = events;
  std::string_view rest;
  const size_t comma = events.find_last_of(',');
  if (comma != std::string_view::npos &&
      events.find_first_not_of(" \n", comma + 1) == std::string_view::npos) {
    body = events.substr(0, comma);
    rest = events.substr(comma + 1);
  }
  std::string doc;
  doc.reserve(kHead.size() + events.size() + kTail.size());
  doc += kHead;
  doc += body;
  doc += rest;
  doc += kTail;
  return doc;
}

}  // namespace hl
