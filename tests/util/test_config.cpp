// Key=value config parsing and typed lookups.
#include "util/config.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace tgi::util {
namespace {

TEST(Config, ParsesBasicPairs) {
  const Config cfg = Config::parse("a = 1\nb=hello\n  c  =  2.5  \n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "hello");
  EXPECT_DOUBLE_EQ(cfg.get_double("c", 0.0), 2.5);
}

TEST(Config, CommentsAndBlanks) {
  const Config cfg = Config::parse("# comment\n\nkey = v # trailing\n");
  EXPECT_EQ(cfg.get_string("key", ""), "v");
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Config, LaterAssignmentWins) {
  const Config cfg = Config::parse("x = 1\nx = 2\n");
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("no-equals-here\n"), PreconditionError);
  EXPECT_THROW(Config::parse("= value\n"), PreconditionError);
}

TEST(Config, FromArgs) {
  const char* argv[] = {"prog", "seed=42", "name=fire"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_int("seed", 0), 42);
  EXPECT_EQ(cfg.get_string("name", ""), "fire");
}

TEST(Config, FromArgsAcceptsFlagAliasesAndRejectsBareFlags) {
  const char* argv[] = {"prog", "--threads", "4", "--trace=out", "seed=7"};
  const Config cfg = Config::from_args(5, argv, {"threads", "trace"});
  EXPECT_EQ(cfg.get_int("threads", 0), 4);
  EXPECT_EQ(cfg.get_string("trace", ""), "out");
  EXPECT_EQ(cfg.get_int("seed", 0), 7);
  // A bare --name is never a key: there are no switches.
  const char* bare[] = {"prog", "--resume"};
  EXPECT_THROW(Config::from_args(2, bare, {"threads"}), PreconditionError);
  // Unlisted --flags and a trailing flag with no value stay malformed.
  const char* unknown[] = {"prog", "--frobnicate", "3"};
  EXPECT_THROW(Config::from_args(3, unknown, {"threads"}),
               PreconditionError);
  const char* dangling[] = {"prog", "--threads"};
  EXPECT_THROW(Config::from_args(2, dangling, {"threads"}),
               PreconditionError);
}

TEST(Config, FromArgsRejectsBareToken) {
  const char* argv[] = {"prog", "noequals"};
  EXPECT_THROW(Config::from_args(2, argv), PreconditionError);
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("absent", "d"), "d");
  EXPECT_TRUE(cfg.get_bool("absent", true));
  EXPECT_FALSE(cfg.has("absent"));
  EXPECT_FALSE(cfg.get("absent").has_value());
}

TEST(Config, TypedParseErrors) {
  Config cfg;
  cfg.set("n", "12x");
  cfg.set("d", "abc");
  cfg.set("b", "maybe");
  EXPECT_THROW((void)cfg.get_int("n", 0), PreconditionError);
  EXPECT_THROW((void)cfg.get_double("d", 0.0), PreconditionError);
  EXPECT_THROW((void)cfg.get_bool("b", false), PreconditionError);
}

TEST(Config, BoolSpellings) {
  Config cfg;
  for (const char* t : {"true", "1", "yes", "on"}) {
    cfg.set("k", t);
    EXPECT_TRUE(cfg.get_bool("k", false)) << t;
  }
  for (const char* f : {"false", "0", "no", "off"}) {
    cfg.set("k", f);
    EXPECT_FALSE(cfg.get_bool("k", true)) << f;
  }
}

TEST(Config, IntList) {
  Config cfg;
  cfg.set("sweep", "16, 32,64 ,128");
  const auto v = cfg.get_int_list("sweep", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 16);
  EXPECT_EQ(v[3], 128);
}

TEST(Config, IntListFallbackAndErrors) {
  Config cfg;
  EXPECT_EQ(cfg.get_int_list("absent", {1, 2}), (std::vector<long long>{1, 2}));
  cfg.set("bad", "1,x");
  EXPECT_THROW(cfg.get_int_list("bad", {}), PreconditionError);
  cfg.set("empty", ",,");
  EXPECT_THROW(cfg.get_int_list("empty", {}), PreconditionError);
}

TEST(Config, IntListRejectsTrailingGarbage) {
  // Regression: "32abc" used to slip through a bare std::stoll as 32.
  Config cfg;
  cfg.set("sweep", "16,32abc");
  EXPECT_THROW((void)cfg.get_int_list("sweep", {}), PreconditionError);
}

TEST(ParseNumber, WholeStringDiscipline) {
  EXPECT_EQ(parse_int("42", "n"), 42);
  EXPECT_EQ(parse_int(" -7", "n"), -7);
  EXPECT_THROW((void)parse_int("12abc", "n"), PreconditionError);
  EXPECT_THROW((void)parse_int("", "n"), PreconditionError);
  EXPECT_DOUBLE_EQ(parse_double("2.5e3", "x"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_double("-0.125", "x"), -0.125);
  EXPECT_THROW((void)parse_double("0.5x", "x"), PreconditionError);
  EXPECT_THROW((void)parse_double("abc", "x"), PreconditionError);
  EXPECT_THROW((void)parse_double("", "x"), PreconditionError);
}

TEST(ParseNumber, NonFiniteAndOutOfRangeDoublesAreRejected) {
  // strtod reads every one of these; none is a usable configured quantity.
  for (const char* text : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf",
                           "Infinity", "1e400", "-1e400"}) {
    EXPECT_THROW((void)parse_double(text, "x"), PreconditionError) << text;
    Config cfg;
    cfg.set("k", text);
    EXPECT_THROW((void)cfg.get_double("k", 0.0), PreconditionError) << text;
  }
  EXPECT_THROW((void)parse_double_list("0.5,inf", "weights"),
               PreconditionError);
  try {
    (void)parse_double("inf", "config key 'pue'");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("config key 'pue' is not a finite"),
              std::string::npos)
        << e.what();
  }
  // strtod's grammar otherwise: hexfloats and leading white space.
  EXPECT_DOUBLE_EQ(parse_double("0x1.8p1", "x"), 3.0);
  EXPECT_DOUBLE_EQ(parse_double(" 2.5", "x"), 2.5);
}

TEST(ParseNumber, ErrorNamesTheOffendingValue) {
  try {
    (void)parse_double("0.5x", "weights item 2");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("weights item 2"), std::string::npos) << what;
    EXPECT_NE(what.find("0.5x"), std::string::npos) << what;
  }
}

TEST(ParseDoubleList, TrimsItemsAndRejectsGarbage) {
  const auto v = parse_double_list("0.1, 0.7 ,0.2", "weights");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.1);
  EXPECT_DOUBLE_EQ(v[1], 0.7);
  EXPECT_DOUBLE_EQ(v[2], 0.2);
  EXPECT_THROW((void)parse_double_list("0.1,x,0.2", "weights"),
               PreconditionError);
  EXPECT_THROW((void)parse_double_list("0.1,0.7x", "weights"),
               PreconditionError);
  EXPECT_THROW((void)parse_double_list(",,", "weights"), PreconditionError);
  EXPECT_THROW((void)parse_double_list("", "weights"), PreconditionError);
}

TEST(RequireKnownKeys, AcceptsKnownAndEmpty) {
  Config cfg;
  EXPECT_NO_THROW(require_known_keys(cfg, {"threads"}, "tool"));
  cfg.set("threads", "8");
  cfg.set("seed", "42");
  EXPECT_NO_THROW(require_known_keys(cfg, {"seed", "threads"}, "tool"));
}

TEST(RequireKnownKeys, RejectsTypoNamingKeyAndOptions) {
  Config cfg;
  cfg.set("thread", "8");  // typo for "threads"
  try {
    require_known_keys(cfg, {"seed", "threads"}, "tgi_sweep");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tgi_sweep"), std::string::npos) << what;
    EXPECT_NE(what.find("'thread'"), std::string::npos) << what;
    EXPECT_NE(what.find("seed, threads"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace tgi::util
