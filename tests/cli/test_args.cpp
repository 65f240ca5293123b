#include <gtest/gtest.h>

#include "cli/args.hpp"

namespace {

using namespace swr::cli;

TEST(Args, PositionalsAndFlags) {
  ArgParser p;
  p.flag("verbose").option("top", "10");
  p.parse({"a.fa", "--verbose", "b.fa"});
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"a.fa", "b.fa"}));
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_EQ(p.get("top"), "10");  // default
}

TEST(Args, OptionBothSyntaxes) {
  ArgParser p;
  p.option("k").option("mode");
  p.parse({"--k", "11", "--mode=local"});
  EXPECT_EQ(p.get("k"), "11");
  EXPECT_EQ(p.get("mode"), "local");
}

TEST(Args, DoubleDashEndsOptions) {
  ArgParser p;
  p.flag("x");
  p.parse({"--", "--x"});
  EXPECT_FALSE(p.has("x"));
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"--x"}));
}

TEST(Args, UnknownOptionRejected) {
  ArgParser p;
  p.option("top");
  EXPECT_THROW(p.parse({"--nope", "5"}), ArgError);
}

TEST(Args, MissingValueRejected) {
  ArgParser p;
  p.option("top");
  EXPECT_THROW(p.parse({"--top"}), ArgError);
}

TEST(Args, FlagWithValueRejected) {
  ArgParser p;
  p.flag("verbose");
  EXPECT_THROW(p.parse({"--verbose=yes"}), ArgError);
}

TEST(Args, RequiredOptionWithoutDefault) {
  ArgParser p;
  p.option("in");
  p.parse({});
  EXPECT_THROW((void)p.get("in"), ArgError);
  EXPECT_EQ(p.get_optional("in"), std::nullopt);
}

TEST(Args, TypedAccessors) {
  ArgParser p;
  p.option("n").option("x");
  p.parse({"--n", "42", "--x", "2.5"});
  EXPECT_EQ(p.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("x"), 2.5);
}

TEST(Args, TypedAccessorsRejectGarbage) {
  ArgParser p;
  p.option("n");
  p.parse({"--n", "12abc"});
  EXPECT_THROW((void)p.get_int("n"), ArgError);
  EXPECT_THROW((void)p.get_double("n"), ArgError);
}

TEST(Args, RangeCheckedIntegers) {
  ArgParser p;
  p.option("n").option("zero").option("neg").option("big").option("word");
  p.parse({"--n", "42", "--zero", "0", "--neg", "-1", "--big", "70000", "--word", "x"});
  EXPECT_EQ(p.get_int_as<std::size_t>("n"), 42u);
  EXPECT_EQ(p.get_int_as<std::size_t>("zero"), 0u);  // zero is the command's to judge
  EXPECT_EQ(p.get_int_as<int>("neg", -5), -1);
  EXPECT_EQ(p.get_int_as<std::uint32_t>("big"), 70000u);
  EXPECT_THROW((void)p.get_int_as<std::size_t>("neg"), ArgError);
  EXPECT_THROW((void)p.get_int_as<std::size_t>("n", 0, 41), ArgError);
  EXPECT_THROW((void)p.get_int_as<std::uint16_t>("word"), ArgError);
  try {
    (void)p.get_int_as<std::uint16_t>("big");
    ADD_FAILURE() << "70000 does not fit a port";
  } catch (const ArgError& e) {
    EXPECT_STREQ(e.what(), "option --big must be in [0, 65535], got 70000");
  }
}

TEST(Args, UndeclaredAccessRejected) {
  ArgParser p;
  p.parse({});
  EXPECT_THROW((void)p.has("nope"), ArgError);
  EXPECT_THROW((void)p.get("nope"), ArgError);
}

TEST(Args, ShortDashStringsArePositionals) {
  ArgParser p;
  p.parse({"-x", "a"});
  EXPECT_EQ(p.positionals().size(), 2u);
}

}  // namespace
