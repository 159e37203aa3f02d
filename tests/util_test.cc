#include <gtest/gtest.h>

#include <atomic>

#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/budget.h"
#include "util/json.h"
#include "util/lexer.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace semap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ResourceCodesPrintTheirNames) {
  Status deadline = Status::DeadlineExceeded("took too long");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: took too long");
  Status exhausted = Status::ResourceExhausted("out of steps");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "ResourceExhausted: out of steps");
}

TEST(StatusTest, ResourceCodesStreamCleanly) {
  std::ostringstream out;
  out << Status::DeadlineExceeded("d") << " / " << Status::ResourceExhausted("r");
  EXPECT_EQ(out.str(), "DeadlineExceeded: d / ResourceExhausted: r");
}

TEST(GovernorTest, UnlimitedByDefault) {
  ResourceGovernor governor;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(governor.Charge().ok());
  EXPECT_FALSE(governor.exhausted());
  EXPECT_EQ(governor.steps_used(), 1000);
}

TEST(GovernorTest, StepBudgetTripsAndStaysTripped) {
  ResourceGovernor governor;
  governor.set_max_steps(3);
  EXPECT_TRUE(governor.Charge().ok());
  EXPECT_TRUE(governor.Charge().ok());
  EXPECT_TRUE(governor.Charge().ok());
  Status tripped = governor.Charge();
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.exhausted());
  // Sticky: the same terminal status keeps coming back.
  EXPECT_EQ(governor.Charge().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, CancelFlagTripsTheChainAtItsNextCharge) {
  std::atomic<bool> flag{false};
  ResourceGovernor root;
  root.set_cancel_flag(&flag);
  ResourceGovernor unit;
  unit.set_parent(&root);
  EXPECT_TRUE(unit.Charge().ok());
  EXPECT_FALSE(root.exhausted());
  flag.store(true);
  // Readers see the flag without charging; the child trips at its next
  // charge with the shutdown status.
  EXPECT_TRUE(root.exhausted());
  EXPECT_EQ(root.status().message(), "run interrupted (shutdown requested)");
  Status tripped = unit.Charge();
  EXPECT_EQ(tripped.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tripped.message(), "run interrupted (shutdown requested)");
  EXPECT_TRUE(unit.exhausted());
  // Sticky, like every other trip.
  flag.store(false);
  EXPECT_TRUE(root.exhausted());
  EXPECT_FALSE(unit.Charge().ok());
}

TEST(GovernorTest, ExpiredDeadlineTripsOnFirstCharge) {
  ResourceGovernor governor;
  governor.set_deadline_ms(-1);
  EXPECT_EQ(governor.Charge().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, MemoryBudgetTrips) {
  ResourceGovernor governor;
  governor.set_max_memory_bytes(100);
  EXPECT_TRUE(governor.ChargeMemory(60).ok());
  EXPECT_EQ(governor.ChargeMemory(60).code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, FaultInjectionIsDeterministic) {
  ResourceGovernor governor;
  governor.InjectFailureAfter(5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(governor.Charge().ok()) << i;
  EXPECT_EQ(governor.Charge().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, FaultAfterFromEnv) {
  ASSERT_EQ(setenv("SEMAP_FAULT_AFTER", "42", 1), 0);
  auto parsed = ResourceGovernor::FaultAfterFromEnv();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, 42);
  ASSERT_EQ(setenv("SEMAP_FAULT_AFTER", "nonsense", 1), 0);
  EXPECT_FALSE(ResourceGovernor::FaultAfterFromEnv().has_value());
  ASSERT_EQ(unsetenv("SEMAP_FAULT_AFTER"), 0);
  EXPECT_FALSE(ResourceGovernor::FaultAfterFromEnv().has_value());
}

TEST(GovernorTest, TruncationNotesAndToString) {
  ResourceGovernor governor;
  governor.set_max_steps(1);
  (void)governor.Charge(2);
  governor.NoteTruncation("search: stopped at 1/10 roots");
  ASSERT_EQ(governor.truncations().size(), 1u);
  std::string summary = governor.ToString();
  EXPECT_NE(summary.find("steps=2/1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("ResourceExhausted"), std::string::npos) << summary;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, SplitAndTrim) {
  auto parts = SplitAndTrim("  a , b,  c  ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  auto parts = SplitAndTrim(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(LexerTest, TokenizesIdentifiersAndPunct) {
  auto tokens = Tokenize("table person(pname) key(pname);");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cur(*tokens);
  EXPECT_TRUE(cur.TryConsumeIdent("table"));
  EXPECT_TRUE(cur.TryConsumeIdent("person"));
  EXPECT_TRUE(cur.TryConsumePunct("("));
  EXPECT_TRUE(cur.TryConsumeIdent("pname"));
  EXPECT_TRUE(cur.TryConsumePunct(")"));
}

TEST(LexerTest, MultiCharPunct) {
  auto tokens = Tokenize("a -> b .. c -- d");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cur(*tokens);
  cur.Next();
  EXPECT_TRUE(cur.TryConsumePunct("->"));
  cur.Next();
  EXPECT_TRUE(cur.TryConsumePunct(".."));
  cur.Next();
  EXPECT_TRUE(cur.TryConsumePunct("--"));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("a # comment to end\nb // another\nc");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);  // a b c + end
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
  EXPECT_EQ((*tokens)[2].text, "c");
}

TEST(LexerTest, TracksLineAndColumn) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[1].column, 3);
}

TEST(LexerTest, RejectsUnknownCharacter) {
  auto tokens = Tokenize("a @ b");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, ErrorsReportPosition) {
  auto tokens = Tokenize("x y");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cur(*tokens);
  Status err = cur.ExpectPunct(";");
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.message().find("line 1"), std::string::npos);
}

TEST(LexerTest, LenientTokenizerSkipsBadCharactersWithDiagnostics) {
  DiagnosticSink sink;
  std::vector<Token> tokens = TokenizeLenient("a @ b % c", sink);
  // The bad characters are gone, the good tokens remain (+ kEnd).
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  EXPECT_EQ(sink.diagnostics()[0].code, diag::kUnexpectedChar);
  EXPECT_EQ(sink.diagnostics()[0].span, (SourceSpan{1, 3}));
  EXPECT_EQ(sink.diagnostics()[1].span, (SourceSpan{1, 7}));
}

TEST(LexerTest, SynchronizeStopsAtAnchorOrEnd) {
  auto tokens = Tokenize("x y ; table z");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cur(*tokens);
  cur.SynchronizeTo({"table"});
  EXPECT_EQ(cur.Peek().text, "table");
  // From the anchor itself it advances at least one token, so repeated
  // synchronization cannot loop forever; with no further anchor it
  // drains to the end.
  cur.SynchronizeTo({"table"});
  EXPECT_TRUE(cur.AtEnd());
}

TEST(DiagTest, ToStringCarriesCodeSpanArtifactAndHint) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.code = diag::kUnknownClass;
  d.message = "no class 'Ghost'";
  d.span = {3, 7};
  d.artifact = "source.cm";
  d.hint = "declare the class first";
  EXPECT_EQ(d.ToString(),
            "source.cm:3:7: error SEMAP-E022: no class 'Ghost' "
            "(hint: declare the class first)");
  d.artifact.clear();
  d.hint.clear();
  EXPECT_EQ(d.ToString(), "<input>:3:7: error SEMAP-E022: no class 'Ghost'");
}

TEST(DiagTest, SinkStampsArtifactAndCounts) {
  DiagnosticSink sink;
  sink.set_artifact("a.schema");
  sink.Error(diag::kDuplicateTable, "dup", {1, 1});
  sink.Warning(diag::kRicNonKeyTarget, "weak", {2, 1});
  sink.Note(diag::kQuarantined, "gone");
  EXPECT_EQ(sink.diagnostics().size(), 3u);
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_TRUE(sink.has_errors());
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.artifact, "a.schema");
  }
  size_t mark = sink.error_count();
  sink.Error(diag::kBadKey, "bad", {3, 1});
  EXPECT_EQ(sink.ErrorsSince(mark), 1u);
}

TEST(DiagTest, AlreadyDiagnosedSentinelRoundTrips) {
  EXPECT_TRUE(IsAlreadyDiagnosed(AlreadyDiagnosed()));
  EXPECT_FALSE(IsAlreadyDiagnosed(Status::OK()));
  EXPECT_FALSE(IsAlreadyDiagnosed(Status::ParseError("real problem")));
}

TEST(BackoffTest, ZeroJitterIsExactExponentialWithCap) {
  BackoffPolicy policy;
  policy.initial_ms = 10;
  policy.multiplier = 2.0;
  policy.max_ms = 50;
  policy.jitter = 0.0;
  Backoff backoff(policy);
  EXPECT_EQ(backoff.Schedule(5),
            (std::vector<int64_t>{10, 20, 40, 50, 50}));
}

TEST(BackoffTest, SameSeedSameSchedule) {
  BackoffPolicy policy;
  policy.seed = 42;
  Backoff a(policy);
  Backoff b(policy);
  EXPECT_EQ(a.Schedule(6), b.Schedule(6));
  policy.seed = 43;
  Backoff c(policy);
  EXPECT_NE(a.Schedule(6), c.Schedule(6));
}

TEST(BackoffTest, JitterStaysWithinBand) {
  BackoffPolicy policy;
  policy.initial_ms = 100;
  policy.multiplier = 1.0;
  policy.max_ms = 100;
  policy.jitter = 0.25;
  policy.seed = 7;
  Backoff backoff(policy);
  for (size_t attempt = 0; attempt < 32; ++attempt) {
    int64_t delay = backoff.DelayMs(attempt);
    EXPECT_GE(delay, 75) << "attempt " << attempt;
    EXPECT_LE(delay, 125) << "attempt " << attempt;
  }
}

TEST(BackoffTest, ZeroInitialNeverSleeps) {
  BackoffPolicy policy;
  policy.initial_ms = 0;
  policy.max_ms = 0;
  Backoff backoff(policy);
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(backoff.DelayMs(attempt), 0);
  }
}

TEST(GovernorConcurrencyTest, ConcurrentChargesTripOnceAndStayTripped) {
  // Hammer one governor from many threads: the step budget must trip
  // exactly once, the terminal status must be stable, and every thread
  // must observe the trip through Charge's return value. Run under TSan
  // (cmake -DSEMAP_SANITIZE=THREAD) this also proves the absence of
  // data races on the hot path.
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 10'000;
  ResourceGovernor governor;
  governor.set_max_steps(1'000);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&governor] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        if (!governor.Charge().ok()) break;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.status().code(), StatusCode::kResourceExhausted);
  // The terminal status is write-once: repeated reads agree.
  const std::string first = governor.status().ToString();
  EXPECT_EQ(governor.status().ToString(), first);
}

TEST(GovernorConcurrencyTest, CancelFromAnotherThreadUnwindsChargers) {
  ResourceGovernor governor;
  std::thread canceller(
      [&governor] { governor.Cancel(Status::DeadlineExceeded("watchdog")); });
  canceller.join();
  EXPECT_TRUE(governor.exhausted());
  EXPECT_FALSE(governor.Charge().ok());
  EXPECT_EQ(governor.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorConcurrencyTest, ParentTripPropagatesToChildren) {
  ResourceGovernor parent;
  ResourceGovernor child_a;
  ResourceGovernor child_b;
  child_a.set_parent(&parent);
  child_b.set_parent(&parent);
  parent.Cancel(Status::DeadlineExceeded("unit deadline"));
  EXPECT_FALSE(child_a.Charge().ok());
  EXPECT_FALSE(child_b.Charge().ok());
  EXPECT_EQ(child_a.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(child_b.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(JsonTest, ParsesScalarsContainersAndEscapes) {
  auto value = json::Parse(
      R"({"s":"a\"b\n","n":-42,"f":true,"arr":[1,2,3],"obj":{"k":"v"}})");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->GetString("s", ""), "a\"b\n");
  EXPECT_EQ(value->GetInt("n", 0), -42);
  const json::Value* arr = value->Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->AsArray().size(), 3u);
  const json::Value* obj = value->Find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->GetString("k", ""), "v");
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{\"k\":").ok());
  EXPECT_FALSE(json::Parse("{\"k\" 1}").ok());
  EXPECT_FALSE(json::Parse("[1,2").ok());
  EXPECT_FALSE(json::Parse("tru").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
}

}  // namespace
}  // namespace semap
