// PARALEON_CHECK / PARALEON_DCHECK semantics, failure_to_json, and the
// RunDigest hash used by the determinism regression suite.
#include <gtest/gtest.h>

#include <string>

#include "check/check.hpp"
#include "check/digest.hpp"
#include "common/json.hpp"

namespace paraleon::check {
namespace {

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(PARALEON_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PARALEON_CHECK(true, "never printed ", 42));
}

TEST(Check, FailureThrowsCheckFailureWithContext) {
  try {
    const int got = 7;
    PARALEON_CHECK(got == 8, "got=", got, " want=", 8);
    FAIL() << "PARALEON_CHECK(false) must throw";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.expression(), "got == 8");
    EXPECT_NE(std::string(e.file()).find("check_test.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_EQ(e.message(), "got=7 want=8");
    const std::string what = e.what();
    EXPECT_NE(what.find("got == 8"), std::string::npos);
    EXPECT_NE(what.find("got=7 want=8"), std::string::npos);
  }
}

TEST(Check, FailureWithoutMessageStillNamesTheExpression) {
  try {
    PARALEON_CHECK(false);
    FAIL() << "PARALEON_CHECK(false) must throw";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.expression(), "false");
    EXPECT_TRUE(e.message().empty());
  }
}

TEST(Check, CheckFailureIsARuntimeError) {
  // Callers that only know std::exception still get the full diagnostic.
  EXPECT_THROW(PARALEON_CHECK(false, "as runtime_error"), std::runtime_error);
}

TEST(Check, ActiveRegardlessOfNdebug) {
  // The whole point of the macro family: unlike assert(), PARALEON_CHECK
  // fires in release builds too. This test is compiled under whatever
  // build type the suite uses, so passing here in a Release/NDEBUG
  // configuration proves the claim.
  EXPECT_THROW(PARALEON_CHECK(false), CheckFailure);
}

TEST(Check, DcheckFollowsBuildType) {
#ifdef NDEBUG
  // Compiled out — but operands must still type-check and not run.
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return false;
  };
  EXPECT_NO_THROW(PARALEON_DCHECK(touch(), "dead in NDEBUG"));
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_THROW(PARALEON_DCHECK(false, "live in debug"), CheckFailure);
  EXPECT_NO_THROW(PARALEON_DCHECK(true));
#endif
}

TEST(Check, FailureJsonEscapesQuotesBackslashesAndControlCharacters) {
  // A flight bundle's failure.json must parse whatever the failing
  // expression and its message contain.
  const std::string expression = "name == \"a\\b\"";
  const std::string message = std::string("tab\there\nbell") + '\x07' + "\r";
  const CheckFailure failure(expression, "dir\\file.cpp", 12, message);
  const std::string json = failure_to_json(failure).dump();
  for (const char c : json) {
    if (c == '\n') continue;  // the document's own line breaks
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  EXPECT_NE(json.find("\\u0007"), std::string::npos) << json;

  const common::Json doc = common::Json::parse(json, "failure.json");
  EXPECT_EQ(doc.find("expression")->as_string(), expression);
  EXPECT_EQ(doc.find("file")->as_string(), "dir\\file.cpp");
  EXPECT_EQ(doc.find("line")->as_int64(), 12);
  EXPECT_EQ(doc.find("message")->as_string(), message);
}

TEST(RunDigest, SameStreamSameValue) {
  RunDigest a;
  RunDigest b;
  for (RunDigest* d : {&a, &b}) {
    d->add("label").add_u64(1).add_i64(-2).add_double(3.5);
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(RunDigest, OrderSensitive) {
  RunDigest a;
  a.add_u64(1).add_u64(2);
  RunDigest b;
  b.add_u64(2).add_u64(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(RunDigest, LabelsAreFramed) {
  // NUL-terminated labels: ("ab","c") must not collide with ("a","bc").
  RunDigest a;
  a.add("ab").add("c");
  RunDigest b;
  b.add("a").add("bc");
  EXPECT_NE(a.value(), b.value());
}

TEST(RunDigest, DoublesHashByBitPattern) {
  RunDigest pos;
  pos.add_double(0.0);
  RunDigest neg;
  neg.add_double(-0.0);
  EXPECT_NE(pos.value(), neg.value());  // byte-for-byte, not epsilon-based
}

TEST(RunDigest, EveryValueChangesTheState) {
  RunDigest empty;
  RunDigest one;
  one.add_u64(0);  // even a zero value must perturb the stream
  EXPECT_NE(empty.value(), one.value());
}

}  // namespace
}  // namespace paraleon::check
