// Tests for the table printer, CSV writer, string helpers and thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace mapcq::util;

TEST(table, renders_header_and_rows) {
  table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(table, rejects_row_width_mismatch) {
  table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(table, rejects_empty_header) {
  EXPECT_THROW(table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(table, section_row_spans) {
  table t({"a", "b"});
  t.add_section("Group 1");
  t.add_row({"x", "y"});
  EXPECT_NE(t.str().find("Group 1"), std::string::npos);
}

TEST(table, num_formats_decimals) {
  EXPECT_EQ(table::num(3.14159, 2), "3.14");
  EXPECT_EQ(table::num(2.0, 0), "2");
}

TEST(table, lines_have_equal_width) {
  table t({"col", "x"});
  t.add_row({"aaaa", "1"});
  t.add_section("sec");
  std::istringstream is(t.str());
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(csv, writes_rows_and_escapes) {
  const std::string path = "/tmp/mapcq_test.csv";
  {
    csv_writer w{path, {"a", "b"}};
    w.write_row(std::vector<std::string>{"x,y", "he said \"hi\""});
    w.write_row(std::vector<double>{1.5, 2.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in{path};
  std::string l1;
  std::string l2;
  std::string l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "\"x,y\",\"he said \"\"hi\"\"\"");
  EXPECT_EQ(l3, "1.5,2");
  std::remove(path.c_str());
}

TEST(csv, rejects_width_mismatch) {
  csv_writer w{"/tmp/mapcq_test2.csv", {"a", "b"}};
  EXPECT_THROW(w.write_row(std::vector<std::string>{"only"}), std::invalid_argument);
  std::remove("/tmp/mapcq_test2.csv");
}

TEST(strings, format_basic) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
}

TEST(strings, join_and_split_roundtrip) {
  const std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(join(parts, ","), "a,,c");
  EXPECT_EQ(split("a,,c", ','), parts);
}

TEST(strings, trim_whitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(strings, starts_with) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("hello", "lo"));
  EXPECT_FALSE(starts_with("h", "hello"));
}

TEST(strings, human_bytes_units) {
  EXPECT_EQ(human_bytes(512.0), "512.00 B");
  EXPECT_EQ(human_bytes(2048.0), "2.00 KiB");
  EXPECT_EQ(human_bytes(3.0 * 1024 * 1024), "3.00 MiB");
}

TEST(strings, human_flops_units) {
  EXPECT_EQ(human_flops(500.0), "500.00 FLOPs");
  EXPECT_EQ(human_flops(2.5e9), "2.50 GFLOPs");
}

TEST(thread_pool, submit_and_wait_idle) {
  thread_pool pool{3};
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(thread_pool, rejects_empty_task) {
  thread_pool pool{1};
  EXPECT_THROW(pool.submit({}), std::invalid_argument);
}

TEST(thread_pool, size_is_at_least_one) {
  thread_pool pool{0};
  EXPECT_EQ(pool.size(), 1u);
}


}  // namespace
