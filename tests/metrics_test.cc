#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "stats/metrics.h"
#include "storage/disk.h"

namespace cobra {
namespace {

TEST(CsvEscapeTest, PlainCellsPassThrough) {
  EXPECT_EQ(CsvEscape("elevator"), "elevator");
  EXPECT_EQ(CsvEscape("12.5"), "12.5");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscapeTest, CommasQuoted) {
  EXPECT_EQ(CsvEscape("elevator, W=50"), "\"elevator, W=50\"");
}

TEST(CsvEscapeTest, EmbeddedQuotesDoubled) {
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, NewlinesQuoted) {
  EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvEscape("a\rb"), "\"a\rb\"");
}

TEST(TablePrinterTest, PrintCsvEscapesLabelCells) {
  TablePrinter table({"configuration", "avg seek"});
  table.AddRow({"elevator, W=50", "12.5"});
  std::ostringstream os;
  table.PrintCsv(os);
  std::string csv = os.str();
  // The label cell must be quoted so the row still has two columns.
  EXPECT_NE(csv.find("\"elevator, W=50\",12.5"), std::string::npos);
  // Header row is untouched (no specials).
  EXPECT_NE(csv.find("configuration,avg seek"), std::string::npos);
}

TEST(DiskStatsTest, AvgSeekPerWrite) {
  DiskStats stats;
  EXPECT_DOUBLE_EQ(stats.AvgSeekPerWrite(), 0.0);  // no writes: no div-by-0
  stats.writes = 4;
  stats.write_seek_pages = 100;
  EXPECT_DOUBLE_EQ(stats.AvgSeekPerWrite(), 25.0);
}

TEST(DiskStatsTest, WriteSeeksTracked) {
  SimulatedDisk disk;
  std::vector<std::byte> page(disk.page_size());
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(100, page.data()).ok());  // head 0 -> seek 100
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().write_seek_pages, 100u);
  EXPECT_DOUBLE_EQ(disk.stats().AvgSeekPerWrite(), 50.0);
}

TEST(RunMetricsTest, AvgWriteSeekSurfaced) {
  RunMetrics metrics;
  metrics.disk.writes = 2;
  metrics.disk.write_seek_pages = 30;
  EXPECT_DOUBLE_EQ(metrics.avg_write_seek(), 15.0);
}

TEST(JsonRoundTripTest, ScalarsAndNesting) {
  using obs::JsonValue;
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("name", "elevator, \"W\"=50\n");
  doc.Set("count", 42);
  doc.Set("ratio", 2.5);
  doc.Set("flag", true);
  doc.Set("nothing", JsonValue());
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(1);
  arr.Append("two");
  doc.Set("list", std::move(arr));

  auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->AsString(), "elevator, \"W\"=50\n");
  EXPECT_EQ(parsed->Find("count")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(parsed->Find("ratio")->AsDouble(), 2.5);
  EXPECT_TRUE(parsed->Find("flag")->AsBool());
  EXPECT_TRUE(parsed->Find("nothing")->is_null());
  ASSERT_EQ(parsed->Find("list")->size(), 2u);
  EXPECT_EQ(parsed->Find("list")->AsArray()[0].AsInt(), 1);
  EXPECT_EQ(parsed->Find("list")->AsArray()[1].AsString(), "two");
}

TEST(JsonRoundTripTest, CompactAndPrettyAgree) {
  using obs::JsonValue;
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("a", 1);
  JsonValue inner = JsonValue::MakeObject();
  inner.Set("b", -3);
  doc.Set("inner", std::move(inner));
  auto compact = JsonValue::Parse(doc.Dump());
  auto pretty = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(compact.ok());
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(compact->Dump(), pretty->Dump());

  // Members serialize in sorted key order: the opposite insertion order
  // gives the same bytes.
  JsonValue reversed = JsonValue::MakeObject();
  JsonValue inner2 = JsonValue::MakeObject();
  inner2.Set("b", -3);
  reversed.Set("inner", std::move(inner2));
  reversed.Set("a", 1);
  EXPECT_EQ(reversed.Dump(2), doc.Dump(2));
}

TEST(JsonRoundTripTest, ParserRejectsGarbage) {
  using obs::JsonValue;
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2] trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a': 1}").ok());
}

}  // namespace
}  // namespace cobra
