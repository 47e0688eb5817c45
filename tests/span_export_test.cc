// Golden export test: one fixed span set rendered through every span
// exporter (ToJson, RenderSpanForest, the Perfetto trace document) must
// equal committed literal strings. Any change to how a span stores its
// name, track or arguments has to leave these bytes alone: the TRACE_*.json
// timelines and the hlfs_inspect views are read by tools outside this repo.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/sim_clock.h"
#include "util/span.h"

namespace hl {
namespace {

// Nested spans across a view-prefixed track, an instant, a pre-timed device
// span annotated after the fact, a five-argument span (the widest in the
// catalogue, antientropy_round), a name that needs JSON escaping, and the
// largest and a negative integer. Each number is annotated either as the
// string std::to_string makes of it or, with `typed`, as an integer of its
// own type: the exports must not tell the two apart.
void BuildSpanSet(SimClock* clock, SpanTracer* core, bool typed) {
  auto number = [typed](SpanTracer* t, SpanId id, std::string_view key,
                        auto value) {
    if (typed) {
      t->Annotate(id, key, value);
    } else {
      t->Annotate(id, key, std::to_string(value));
    }
  };
  SpanTracer site(core, "siteA.");
  SpanId outer = core->Begin("stager_dispatch", "stager");
  core->Annotate(outer, "tenant", "al\"ice\\\n\t\x01");
  number(core, outer, "shard", 2);
  clock->Advance(10);
  SpanId fetch = site.Begin("fetch", "io");
  number(&site, fetch, "tseg", uint32_t{7});
  clock->Advance(25);
  site.Instant("crc_mismatch", "io", "tseg", 7, "volume", UINT64_MAX);
  SpanId swap = site.AddComplete("media_swap", "jukebox", fetch, 35, 1035);
  number(&site, swap, "slot", 3);
  number(&site, swap, "drive", 1);
  clock->Advance(5);
  site.End(fetch);
  SpanId round = core->Begin("antientropy_round", "site");
  core->Annotate(round, "src", "siteA");
  core->Annotate(round, "dst", "siteB");
  number(core, round, "compared", UINT64_MAX);
  number(core, round, "divergent", -3);
  number(core, round, "shipped", size_t{0});
  clock->Advance(100);
  core->End(round);
  core->End(outer);
}

constexpr char kToJson[] = R"([
  {"id": 0, "parent": 2, "begin_us": 35, "end_us": 35, "name": "crc_mismatch", "track": "siteA.io", "args": {"tseg": "7", "volume": "18446744073709551615"}},
  {"id": 3, "parent": 2, "begin_us": 35, "end_us": 1035, "name": "media_swap", "track": "siteA.jukebox", "args": {"slot": "3", "drive": "1"}},
  {"id": 2, "parent": 1, "begin_us": 10, "end_us": 40, "name": "fetch", "track": "siteA.io", "args": {"tseg": "7"}},
  {"id": 4, "parent": 1, "begin_us": 40, "end_us": 140, "name": "antientropy_round", "track": "site", "args": {"src": "siteA", "dst": "siteB", "compared": "18446744073709551615", "divergent": "-3", "shipped": "0"}},
  {"id": 1, "parent": 0, "begin_us": 0, "end_us": 140, "name": "stager_dispatch", "track": "stager", "args": {"tenant": "al\"ice\\\n\t\u0001", "shard": "2"}}
])";

// Names print raw in the text view, control characters included.
constexpr char kForest[] =
    "stager_dispatch [stager] 140us @0 tenant=al\"ice\\\n"
    "\t\x01 shard=2\n"
    "  fetch [siteA.io] 30us @10 tseg=7\n"
    "    crc_mismatch [siteA.io] instant @35 tseg=7 volume=18446744073709551615\n"
    "    media_swap [siteA.jukebox] 1000us @35 slot=3 drive=1\n"
    "  antientropy_round [site] 100us @40 src=siteA dst=siteB compared=18446744073709551615 divergent=-3 shipped=0\n";

constexpr char kPerfetto[] = R"({"displayTimeUnit": "ms",
"traceEvents": [
  {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "fed\"eration"}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 3, "args": {"name": "site"}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "siteA.io"}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2, "args": {"name": "siteA.jukebox"}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 4, "args": {"name": "stager"}},
  {"ph": "i", "s": "t", "name": "crc_mismatch", "cat": "siteA.io", "ts": 35, "pid": 1, "tid": 1, "args": {"parent": 2, "tseg": "7", "volume": "18446744073709551615"}},
  {"ph": "X", "name": "media_swap", "cat": "siteA.jukebox", "ts": 35, "dur": 1000, "pid": 1, "tid": 2, "args": {"span_id": 3, "parent": 2, "slot": "3", "drive": "1"}},
  {"ph": "X", "name": "fetch", "cat": "siteA.io", "ts": 10, "dur": 30, "pid": 1, "tid": 1, "args": {"span_id": 2, "parent": 1, "tseg": "7"}},
  {"ph": "X", "name": "antientropy_round", "cat": "site", "ts": 40, "dur": 100, "pid": 1, "tid": 3, "args": {"span_id": 4, "parent": 1, "src": "siteA", "dst": "siteB", "compared": "18446744073709551615", "divergent": "-3", "shipped": "0"}},
  {"ph": "X", "name": "stager_dispatch", "cat": "stager", "ts": 0, "dur": 140, "pid": 1, "tid": 4, "args": {"span_id": 1, "parent": 0, "tenant": "al\"ice\\\n\t\u0001", "shard": "2"}},
  {"ph": "M", "name": "process_name", "pid": 2, "tid": 0, "args": {"name": "again"}},
  {"ph": "M", "name": "thread_name", "pid": 2, "tid": 3, "args": {"name": "site"}},
  {"ph": "M", "name": "thread_name", "pid": 2, "tid": 1, "args": {"name": "siteA.io"}},
  {"ph": "M", "name": "thread_name", "pid": 2, "tid": 2, "args": {"name": "siteA.jukebox"}},
  {"ph": "M", "name": "thread_name", "pid": 2, "tid": 4, "args": {"name": "stager"}},
  {"ph": "i", "s": "t", "name": "crc_mismatch", "cat": "siteA.io", "ts": 35, "pid": 2, "tid": 1, "args": {"parent": 2, "tseg": "7", "volume": "18446744073709551615"}},
  {"ph": "X", "name": "media_swap", "cat": "siteA.jukebox", "ts": 35, "dur": 1000, "pid": 2, "tid": 2, "args": {"span_id": 3, "parent": 2, "slot": "3", "drive": "1"}},
  {"ph": "X", "name": "fetch", "cat": "siteA.io", "ts": 10, "dur": 30, "pid": 2, "tid": 1, "args": {"span_id": 2, "parent": 1, "tseg": "7"}},
  {"ph": "X", "name": "antientropy_round", "cat": "site", "ts": 40, "dur": 100, "pid": 2, "tid": 3, "args": {"span_id": 4, "parent": 1, "src": "siteA", "dst": "siteB", "compared": "18446744073709551615", "divergent": "-3", "shipped": "0"}},
  {"ph": "X", "name": "stager_dispatch", "cat": "stager", "ts": 0, "dur": 140, "pid": 2, "tid": 4, "args": {"span_id": 1, "parent": 0, "tenant": "al\"ice\\\n\t\u0001", "shard": "2"}}
]}
)";

class SpanExportTest : public ::testing::TestWithParam<bool> {
 protected:
  SpanExportTest() { BuildSpanSet(&clock_, &core_, GetParam()); }

  SimClock clock_;
  SpanTracer core_{&clock_, 16};
};

TEST_P(SpanExportTest, ToJsonMatchesGolden) {
  EXPECT_EQ(core_.ToJson(64), kToJson);
}

TEST_P(SpanExportTest, RenderSpanForestMatchesGolden) {
  EXPECT_EQ(RenderSpanForest(core_.Completed()), kForest);
}

TEST_P(SpanExportTest, PerfettoDocumentMatchesGolden) {
  std::string events;
  AppendPerfettoSpanEvents(core_, 1, "fed\"eration", &events);
  AppendPerfettoSpanEvents(core_, 2, "again", &events);
  EXPECT_EQ(PerfettoTraceJson(events), kPerfetto);
}

INSTANTIATE_TEST_SUITE_P(StringAndTypedNumbers, SpanExportTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Typed" : "Strings";
                         });

// A record holds kSpanArgCapacity arguments. Annotations past that are
// counted on the record, never silently lost: every exporter prints the
// count as a last args_dropped argument.
TEST(SpanArgCapacityTest, ArgumentsPastTheCapacityAreCountedInEveryExport) {
  SimClock clock;
  SpanTracer tracer(&clock, 4);
  SpanId id = tracer.Begin("wide", "t");
  for (int i = 0; i < 7; ++i) {
    tracer.Annotate(id, "k" + std::to_string(i), i);
  }
  clock.Advance(3);
  tracer.End(id);
  const SpanRecord& rec = tracer.Completed().front();
  ASSERT_EQ(rec.args.size(), kSpanArgCapacity);
  EXPECT_EQ(rec.args.dropped, 2u);
  EXPECT_EQ(tracer.ArgKey(rec.args[4]), "k4");

  EXPECT_EQ(tracer.ToJson(4),
            "[\n  {\"id\": 1, \"parent\": 0, \"begin_us\": 0, \"end_us\": 3, "
            "\"name\": \"wide\", \"track\": \"t\", \"args\": {\"k0\": \"0\", "
            "\"k1\": \"1\", \"k2\": \"2\", \"k3\": \"3\", \"k4\": \"4\", "
            "\"args_dropped\": \"2\"}}\n]");
  EXPECT_EQ(RenderSpanForest(tracer.Completed()),
            "wide [t] 3us @0 k0=0 k1=1 k2=2 k3=3 k4=4 args_dropped=2\n");
  std::string events;
  AppendPerfettoSpanEvents(tracer, 1, "p", &events);
  EXPECT_NE(events.find("\"k4\": \"4\", \"args_dropped\": \"2\"}}"),
            std::string::npos)
      << events;
}

}  // namespace
}  // namespace hl
