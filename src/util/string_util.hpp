// Small string helpers shared by the I/O and reporting code.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace splace {

/// Splits on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Concatenates any mix of strings / string_views / char literals by
/// appending into one result. Prefer this over chained `operator+`: it
/// allocates once, and GCC 12's -Wrestrict false-fires on inlined
/// concatenation chains at -O3 (GCC PR105329), which the -Werror leg in
/// scripts/run_all.sh would turn into a build break.
template <typename... Parts>
std::string concat(Parts&&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

/// Formats a double with `precision` digits after the decimal point.
std::string format_double(double value, int precision = 2);

/// `value` as text that reads back as the same double: the stream default
/// (`%.6g`) when that round-trips, so 0.0007 stays `0.0007`, else the
/// shortest round-trip form from std::to_chars (12345678901, not
/// 1.23457e+10). The metric exports print every double through this.
std::string format_exact(double value);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `text` with ASCII letters lowered (locale-independent).
std::string to_lower(std::string text);

/// The one number parser of the line grammars (scenario files, replay
/// scripts, edge lists): `token` must be a decimal integer in [0, max] and
/// nothing else — no sign, no space, no trailing characters. Otherwise
/// throws InvalidInput("<where>: ..."); `where` names the line, e.g.
/// "replay line 7".
std::uint64_t parse_uint(
    std::string_view token, std::string_view where,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A finite real with nothing after it (no NaN, no infinity, no leading
/// '+'); throws like parse_uint otherwise.
double parse_double(std::string_view token, std::string_view where);

/// `raw` escaped for the inside of a JSON string: quote, backslash, and
/// every control character below 0x20 (\n, \t and \r short, the rest
/// \u00XX). Other bytes pass through unchanged.
std::string json_escape(std::string_view raw);

}  // namespace splace
