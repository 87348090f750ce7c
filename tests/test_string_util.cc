#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/logging.h"

namespace tvmbo {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("autotvm-xgb", "autotvm"));
  EXPECT_FALSE(starts_with("xgb", "autotvm"));
  EXPECT_TRUE(ends_with("results.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", "results.csv"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(1.659, 3), "1.659");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("no match", "x", "y"), "no match");
  // Replacement containing the pattern must not recurse.
  EXPECT_EQ(replace_all("ab", "a", "aa"), "aab");
}

TEST(StringUtil, FindPlaceholders) {
  const auto names = find_placeholders(
      "split(y, #P0)\nsplit(x, #P1)\nsplit(z, #P10) #P0 again");
  ASSERT_EQ(names.size(), 3u);  // deduplicated
  EXPECT_EQ(names[0], "#P0");
  EXPECT_EQ(names[1], "#P1");
  EXPECT_EQ(names[2], "#P10");
}

TEST(StringUtil, SubstitutePlaceholders) {
  const std::map<std::string, std::string> values{{"#P0", "400"},
                                                  {"#P1", "50"}};
  EXPECT_EQ(substitute_placeholders("split(y, #P0); split(x, #P1)", values),
            "split(y, 400); split(x, 50)");
}

TEST(StringUtil, SubstituteLongestPlaceholderFirst) {
  // #P10 must not be corrupted by the #P1 substitution.
  const std::map<std::string, std::string> values{{"#P1", "7"},
                                                  {"#P10", "42"}};
  EXPECT_EQ(substitute_placeholders("#P10 #P1", values), "42 7");
}

TEST(StringUtil, SubstituteUnboundPlaceholderThrows) {
  const std::map<std::string, std::string> values{{"#P0", "1"}};
  EXPECT_THROW(substitute_placeholders("#P0 #P1", values), CheckError);
}

TEST(StringUtil, ParseNumberAcceptsWholeValues) {
  EXPECT_EQ(parse_number<std::size_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::size_t>("120"), 120u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<std::int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("-1e-3"), -1e-3);
  EXPECT_EQ(parse_number<double>("5"), 5.0);
}

TEST(StringUtil, ParseNumberRejectsEmptyInput) {
  EXPECT_FALSE(parse_number<std::size_t>("").has_value());
  EXPECT_FALSE(parse_number<int>("").has_value());
  EXPECT_FALSE(parse_number<double>("").has_value());
}

TEST(StringUtil, ParseNumberRejectsNonNumbers) {
  EXPECT_FALSE(parse_number<std::size_t>("abc").has_value());
  EXPECT_FALSE(parse_number<int>("-").has_value());
  EXPECT_FALSE(parse_number<double>(".").has_value());
}

TEST(StringUtil, ParseNumberRejectsTrailingCharacters) {
  EXPECT_FALSE(parse_number<std::size_t>("12abc").has_value());
  EXPECT_FALSE(parse_number<std::size_t>("12 ").has_value());
  EXPECT_FALSE(parse_number<std::size_t>("0x10").has_value());
  EXPECT_FALSE(parse_number<int>("1.5").has_value());
  EXPECT_FALSE(parse_number<double>("2.5s").has_value());
}

TEST(StringUtil, ParseNumberRejectsLeadingCharacters) {
  EXPECT_FALSE(parse_number<std::size_t>(" 12").has_value());
  EXPECT_FALSE(parse_number<int>("\t3").has_value());
  EXPECT_FALSE(parse_number<double>(" 1.0").has_value());
}

TEST(StringUtil, ParseNumberRejectsSignOnUnsigned) {
  EXPECT_FALSE(parse_number<std::size_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("-0").has_value());
  EXPECT_FALSE(parse_number<std::size_t>("+1").has_value());
  EXPECT_FALSE(parse_number<int>("+1").has_value());
}

TEST(StringUtil, ParseNumberRejectsOverflow) {
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616")
                   .has_value());
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<int>("-2147483649").has_value());
  EXPECT_FALSE(parse_number<std::int64_t>("9223372036854775808")
                   .has_value());
  EXPECT_FALSE(parse_number<double>("1e999").has_value());
}

TEST(StringUtil, ParseNumberRejectsNonFinite) {
  EXPECT_FALSE(parse_number<double>("inf").has_value());
  EXPECT_FALSE(parse_number<double>("nan").has_value());
}

}  // namespace
}  // namespace tvmbo
