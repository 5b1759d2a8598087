#include "util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace splace {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string format_exact(double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", value);
  double back = 0;
  const auto parsed = std::from_chars(buf, buf + n, back);
  if (!std::isfinite(value) ||
      (parsed.ec == std::errc() && parsed.ptr == buf + n && back == value))
    return std::string(buf, static_cast<std::size_t>(n));
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string text) {
  for (char& c : text)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return text;
}

std::uint64_t parse_uint(std::string_view token, std::string_view where,
                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end)
    throw InvalidInput(concat(where, ": expected a non-negative integer, got '",
                              token, "'"));
  if (value > max)
    throw InvalidInput(concat(where, ": ", token, " is over the limit of ",
                              std::to_string(max)));
  return value;
}

double parse_double(std::string_view token, std::string_view where) {
  double value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value))
    throw InvalidInput(
        concat(where, ": expected a finite number, got '", token, "'"));
  return value;
}

std::string json_escape(std::string_view raw) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace splace
