#include "common/table.h"

#include <gtest/gtest.h>

namespace sos::common {
namespace {

TEST(Table, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, AsciiContainsAllCells) {
  Table t{{"L", "P_S"}};
  t.add_row({"3", "0.95"});
  t.add_row({"4", "0.87"});
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("L"), std::string::npos);
  EXPECT_NE(out.find("P_S"), std::string::npos);
  EXPECT_NE(out.find("0.95"), std::string::npos);
  EXPECT_NE(out.find("0.87"), std::string::npos);
}

TEST(Table, AsciiColumnsAligned) {
  Table t{{"x", "longheader"}};
  t.add_row({"123456", "y"});
  const std::string out = t.to_ascii();
  // Every line should have equal length (box alignment).
  std::size_t expected = out.find('\n');
  for (std::size_t start = 0; start < out.size();) {
    const std::size_t end = out.find('\n', start);
    EXPECT_EQ(end - start, expected);
    start = end + 1;
  }
}

TEST(Table, CsvRoundTripSimple) {
  Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Table, CountsRowsAndColumns) {
  Table t{{"a", "b", "c"}};
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.row_count(), 1u);
}

}  // namespace
}  // namespace sos::common
