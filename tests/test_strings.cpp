#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace splace {
namespace {

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "lo"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("QoS-AT&T 1"), "qos-at&t 1");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("\xC4"), "\xC4");  // ASCII only
}

TEST(Csv, PlainCells) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.write_row({"a", "b"});
  w.write_row_values({1.0, 2.5}, 1);
  EXPECT_EQ(oss.str(), "a,b\n1.0,2.5\n");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22 |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.to_string().find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, NumericRows) {
  TablePrinter t({"x"});
  t.add_row_values({1.2345}, 2);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

}  // namespace
}  // namespace splace
