#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace linkpad::util {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("--quick", "fast mode");
  p.add_option("--sigma", "1.5", "a number");
  p.add_option("--count", "42", "an integer");
  p.add_option("--name", "default", "a string");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_FALSE(p.flag("--quick"));
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 1.5);
  EXPECT_EQ(p.integer("--count"), 42);
  EXPECT_EQ(p.str("--name"), "default");
}

TEST(ArgParser, ParsesSpaceSeparatedValues) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--sigma", "2.75", "--name", "abc"}));
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 2.75);
  EXPECT_EQ(p.str("--name"), "abc");
}

TEST(ArgParser, ParsesEqualsSyntax) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--count=7"}));
  EXPECT_EQ(p.integer("--count"), 7);
}

TEST(ArgParser, FlagPresenceSetsTrue) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--quick"}));
  EXPECT_TRUE(p.flag("--quick"));
}

TEST(ArgParser, RejectsUnknownArgument) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--bogus"}));
}

TEST(ArgParser, RejectsMissingValue) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--sigma"}));
}

TEST(ArgParser, RejectsValueOnFlag) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--quick=yes"}));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--help"}));
}

TEST(ArgParser, NonNumericValueThrowsOnAccess) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--sigma", "abc"}));
  EXPECT_THROW((void)p.num("--sigma"), std::invalid_argument);
}

TEST(ArgParser, UndeclaredOptionAccessThrows) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.str("--nope"), std::invalid_argument);
}

TEST(ArgParser, HelpTextMentionsAllOptions) {
  auto p = make_parser();
  const auto text = p.help();
  EXPECT_NE(text.find("--quick"), std::string::npos);
  EXPECT_NE(text.find("--sigma"), std::string::npos);
  EXPECT_NE(text.find("--count"), std::string::npos);
}

ArgParser make_typed_parser() {
  ArgParser p("prog", "typed test parser");
  p.add_int("--count", 42, "an integer");
  p.add_num("--sigma", 1.5, "a number");
  return p;
}

TEST(ArgParserTyped, TypedDefaultsApplyAndParse) {
  auto p = make_typed_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.integer("--count"), 42);
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 1.5);
  ASSERT_TRUE(parse(p, {"--count", "-7", "--sigma=2.75"}));
  EXPECT_EQ(p.integer("--count"), -7);
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 2.75);
}

TEST(ArgParserTyped, BadValuesFailAtParseTimeNotOnAccess) {
  // Typed options reject the bad token while argv is being consumed —
  // the run never starts with a typo'd parameter.
  auto p = make_typed_parser();
  EXPECT_FALSE(parse(p, {"--count", "abc"}));
  auto q = make_typed_parser();
  EXPECT_FALSE(parse(q, {"--count", "12x"}));
  auto r = make_typed_parser();
  EXPECT_FALSE(parse(r, {"--sigma=fast"}));
  // A float is not an integer.
  auto s = make_typed_parser();
  EXPECT_FALSE(parse(s, {"--count", "1.5"}));
  // But an integer is a fine number, and scientific notation parses.
  auto t = make_typed_parser();
  EXPECT_TRUE(parse(t, {"--sigma", "3"}));
  EXPECT_DOUBLE_EQ(t.num("--sigma"), 3.0);
  auto u = make_typed_parser();
  EXPECT_TRUE(parse(u, {"--sigma", "1e-3"}));
  EXPECT_DOUBLE_EQ(u.num("--sigma"), 1e-3);
}

TEST(ArgParserTyped, HelpShowsTypedDefaults) {
  const auto text = make_typed_parser().help();
  EXPECT_NE(text.find("<int = 42>"), std::string::npos);
  EXPECT_NE(text.find("<num = 1.5>"), std::string::npos);
}

ArgParser make_kinds_parser() {
  ArgParser p("prog", "one option of each typed kind");
  p.add_int("--int", 0, "an integer");
  p.add_count("--count", 0, kMaxRunCount, "a count");
  p.add_num("--num", 0.0, "a number");
  return p;
}

/// Parse one option and return what the parser wrote to stderr.
std::string parse_error(const std::vector<const char*>& argv, bool* ok) {
  auto p = make_kinds_parser();
  ::testing::internal::CaptureStderr();
  *ok = parse(p, argv);
  return ::testing::internal::GetCapturedStderr();
}

TEST(ArgParserTyped, CountsRejectNegativeValuesAndNameTheFlag) {
  bool ok = true;
  const std::string err = parse_error({"--count", "-5"}, &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(err.find("prog: option '--count': '-5' is not a count"),
            std::string::npos)
      << err;
  // An integer flag still takes negatives, and minus zero is a count.
  auto p = make_kinds_parser();
  ASSERT_TRUE(parse(p, {"--int", "-5", "--count", "-0"}));
  EXPECT_EQ(p.integer("--int"), -5);
  EXPECT_EQ(p.count("--count"), 0u);
  EXPECT_NE(p.help().find("<count = 0>"), std::string::npos);
}

TEST(ArgParserTyped, CountsRejectValuesAboveTheirBoundAndNameIt) {
  // Refused at parse time, by flag and bound: nothing downstream ever
  // sees the value, so no test here sizes a pool or a run from it.
  const auto parse_bounded = [](const std::vector<const char*>& argv,
                                std::string* err) {
    ArgParser p("prog", "bounded counts");
    p.add_count("--threads", 0, kMaxThreads, "worker threads");
    p.add_count("--windows", 10, kMaxRunCount, "windows per class");
    ::testing::internal::CaptureStderr();
    const bool ok = parse(p, argv);
    *err = ::testing::internal::GetCapturedStderr();
    return ok ? std::optional<ArgParser>(p) : std::nullopt;
  };
  std::string err;
  EXPECT_FALSE(parse_bounded({"--threads", "1000000"}, &err));
  EXPECT_NE(err.find("prog: option '--threads': '1000000' exceeds the "
                     "bound 1024"),
            std::string::npos)
      << err;
  EXPECT_FALSE(parse_bounded({"--windows=1073741825"}, &err));
  EXPECT_NE(err.find("prog: option '--windows': '1073741825' exceeds the "
                     "bound 1073741824"),
            std::string::npos)
      << err;
  const auto p = parse_bounded({"--threads", "1024", "--windows",
                                "1073741824"},
                               &err);
  ASSERT_TRUE(p) << err;
  EXPECT_EQ(p->count("--threads"), kMaxThreads);
  EXPECT_EQ(p->count("--windows"), kMaxRunCount);
  EXPECT_NE(p->help().find("worker threads (at most 1024)"),
            std::string::npos);
  EXPECT_EQ(kMaxRunCount, std::size_t{1073741824});
}

TEST(ArgParserTyped, NumbersRejectNanAndInfinity) {
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                            "1e309", "-1e309"}) {
    bool ok = true;
    const std::string err = parse_error({"--num", token}, &ok);
    EXPECT_FALSE(ok) << token;
    EXPECT_NE(err.find("prog: option '--num': '" + std::string(token) +
                       "' is not a finite number"),
              std::string::npos)
        << err;
  }
  auto p = make_kinds_parser();
  ASSERT_TRUE(parse(p, {"--num", "-1.25e-3"}));
  EXPECT_DOUBLE_EQ(p.num("--num"), -1.25e-3);
}

TEST(ArgParserTyped, UntypedAccessorsApplyTheSameRules) {
  // A free-form option read as a count or number obeys the typed rules at
  // access time instead.
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--count", "-3", "--sigma", "inf"}));
  EXPECT_EQ(p.integer("--count"), -3);
  EXPECT_THROW((void)p.count("--count"), std::invalid_argument);
  EXPECT_THROW((void)p.num("--sigma"), std::invalid_argument);
}

/// Whether `text` is a decimal integer that fits in int64 — what an
/// integer flag must accept — decided digit by digit, independently of the
/// library parse. Leading whitespace and one sign are allowed, as in
/// strtoll.
std::optional<std::int64_t> decimal_int64(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  if (i == text.size()) return std::nullopt;
  unsigned __int128 magnitude = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    magnitude = magnitude * 10 + static_cast<unsigned>(text[i] - '0');
    if (magnitude > (static_cast<unsigned __int128>(1) << 63)) {
      return std::nullopt;
    }
  }
  if (!negative && magnitude == (static_cast<unsigned __int128>(1) << 63)) {
    return std::nullopt;
  }
  return negative ? static_cast<std::int64_t>(-magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

/// One seeded command-line token: an edge value, a random integer or
/// decimal, or random characters from the alphabet numbers are made of.
std::string fuzz_token(util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(rng.uniform01() *
                                                    static_cast<double>(n)));
  };
  static const char* const kEdges[] = {
      "", "=", "-", "+", "-0", "0", "+0", "00", "0x10", "1e309", "-1e309",
      "1e-320", "nan", "-nan", "inf", "-inf", "infinity", " 7", "7 ", "1,5",
      "1.5x", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
      "18446744073709551616", "4294967296", "1073741824", "1073741825",
      "-1"};
  std::string token;
  switch (pick(4)) {
    case 0:
      return kEdges[pick(std::size(kEdges))];
    case 1: {  // a signed integer of up to 25 digits
      if (rng.uniform01() < 0.5) token = rng.uniform01() < 0.5 ? "-" : "+";
      const std::size_t digits = 1 + pick(25);
      for (std::size_t d = 0; d < digits; ++d) {
        token += static_cast<char>('0' + pick(10));
      }
      return token;
    }
    case 2: {  // a decimal with an exponent anywhere in ±400
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*fe%d", static_cast<int>(pick(6)),
                    rng.uniform(-10.0, 10.0),
                    static_cast<int>(pick(801)) - 400);
      return buf;
    }
    default: {
      const std::string_view alphabet = "0123456789+-.eExXnaifNAIF =,";
      const std::size_t length = pick(8);
      for (std::size_t c = 0; c < length; ++c) {
        token += alphabet[pick(alphabet.size())];
      }
      return token;
    }
  }
}

TEST(ArgParserFuzz, TypedTokensParseOrFailByName) {
  // Every token either parses to a value the option's type allows, or the
  // parser refuses it with a message naming the program, the option and
  // the token — never a crash, a throw, or a silently wrapped value.
  util::Rng rng(20030324);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int variant = 0; variant < 1500; ++variant) {
    const std::string token = fuzz_token(rng);
    for (const char* flag : {"--int", "--count", "--num"}) {
      for (const bool inline_form : {false, true}) {
        const std::string joined = std::string(flag) + "=" + token;
        std::vector<const char*> argv = {flag, token.c_str()};
        if (inline_form) argv = {joined.c_str()};
        auto p = make_kinds_parser();
        ::testing::internal::CaptureStderr();
        bool ok = false;
        EXPECT_NO_THROW(ok = parse(p, argv)) << flag << " '" << token << "'";
        const std::string err = ::testing::internal::GetCapturedStderr();
        const std::string name(flag);
        const auto exact = decimal_int64(token);
        if (name == "--int") {
          EXPECT_EQ(ok, exact.has_value()) << "'" << token << "'";
          if (ok) {
            EXPECT_EQ(p.integer(flag), *exact);
          }
        } else if (name == "--count") {
          EXPECT_EQ(ok, exact.has_value() && *exact >= 0 &&
                            static_cast<std::size_t>(*exact) <= kMaxRunCount)
              << "'" << token << "'";
          if (ok) {
            EXPECT_EQ(p.count(flag), static_cast<std::size_t>(*exact));
          }
        } else if (ok) {
          const double v = p.num(flag);
          EXPECT_TRUE(std::isfinite(v)) << "'" << token << "'";
          EXPECT_EQ(v, std::strtod(token.c_str(), nullptr))
              << "'" << token << "'";
        }
        if (ok) {
          ++accepted;
        } else {
          ++refused;
          EXPECT_NE(err.find("prog: option '" + name + "': '" + token + "'"),
                    std::string::npos)
              << err;
        }
      }
    }
  }
  // Both outcomes must be common, or the tokens test nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST(BoundedRunCount, ProductsPastTheBoundAreRefusedNamingBothFactors) {
  EXPECT_EQ(bounded_run_count(1000, "--windows", 3000, "--n"), 3000000u);
  EXPECT_EQ(bounded_run_count(1, "--windows", kMaxRunCount, "--n"),
            kMaxRunCount);
  for (const auto& [a, b] :
       {std::pair<std::size_t, std::size_t>{kMaxRunCount, 2},
        {kMaxRunCount, kMaxRunCount},
        {std::size_t{1} << 40, std::size_t{1} << 40}}) {
    try {
      (void)bounded_run_count(a, "--windows", b, "--n");
      ADD_FAILURE() << a << " x " << b << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                "--windows x --n = " + std::to_string(a) + " x " +
                    std::to_string(b) + " exceeds the bound 1073741824");
    }
  }
}

}  // namespace
}  // namespace linkpad::util
