// String helpers: split/join/trim, numeric formatting, and the `#Pk`
// placeholder substitution used by the code-mold machinery (the paper's
// ytopt flow parameterizes TE code with #P0..#Pn markers).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tvmbo {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading/trailing whitespace.
std::string trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Parses all of `text` as one value of the arithmetic type T (the checked
/// conversion behind every numeric command-line flag). Returns nullopt for
/// empty input, any leading or trailing character (whitespace included),
/// a sign on an unsigned type (and a '+' on any type), a value outside T's
/// range, or a non-finite floating-point value.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// printf-style double formatting with fixed precision.
std::string format_double(double value, int precision = 6);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string text, std::string_view from,
                        std::string_view to);

/// Substitutes `#P0`, `#P1`, ... placeholders in a code mold with concrete
/// values. Longer placeholder names are substituted first so that `#P10`
/// is never corrupted by the `#P1` substitution. Throws CheckError if the
/// mold references a placeholder with no binding.
std::string substitute_placeholders(
    std::string_view mold, const std::map<std::string, std::string>& values);

/// Collects the distinct `#P<digits>` placeholder names appearing in a mold.
std::vector<std::string> find_placeholders(std::string_view mold);

}  // namespace tvmbo
