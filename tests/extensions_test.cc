// Tests for the extensions beyond the paper's core: calibration persistence
// and .tbl import/export.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "catalog/catalog.h"
#include "profile/calibration_io.h"
#include "sim/code_layout.h"
#include "tpch/tbl_io.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CalibrationIoTest, SaveLoadRoundTrip) {
  profile::SystemCalibration calibration;
  calibration.cardinality_threshold = 128;
  FuncSet scan;
  scan.AddAll(sim::ModuleBaseFuncs(sim::ModuleId::kSeqScanFiltered));
  calibration.footprints.SetFuncs(sim::ModuleId::kSeqScanFiltered, scan);
  FuncSet buffer;
  buffer.AddAll(sim::ModuleBaseFuncs(sim::ModuleId::kBuffer));
  calibration.footprints.SetFuncs(sim::ModuleId::kBuffer, buffer);

  std::string path = TempPath("calibration_roundtrip.txt");
  ASSERT_TRUE(profile::SaveCalibration(calibration, path).ok());
  auto loaded = profile::LoadCalibration(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_DOUBLE_EQ(loaded->cardinality_threshold, 128);
  EXPECT_EQ(loaded->footprints.footprint_bytes(sim::ModuleId::kSeqScanFiltered),
            13000u);
  EXPECT_EQ(loaded->footprints.footprint_bytes(sim::ModuleId::kBuffer), 500u);
  EXPECT_FALSE(loaded->footprints.has(sim::ModuleId::kSort));
  std::remove(path.c_str());
}

TEST(CalibrationIoTest, LoadRejectsCorruptFiles) {
  std::string path = TempPath("calibration_bad.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a calibration\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(profile::LoadCalibration(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("bufferdb-calibration v1\nmodule NoSuchModule f\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(profile::LoadCalibration(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("bufferdb-calibration v1\nmodule Scan no_such_func\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(profile::LoadCalibration(path).ok());
  EXPECT_FALSE(profile::LoadCalibration(TempPath("missing.txt")).ok());
  std::remove(path.c_str());
}

TEST(TblIoTest, RoundTripAllTypes) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"day", DataType::kDate},
                 {"b", DataType::kBool}});
  Table table("t", schema);
  table.AppendRow({Value::Int64(42), Value::Double(1.25),
                   Value::String("hello world"), Value::Date(10592),
                   Value::Bool(true)});
  table.AppendRow({Value::Null(DataType::kInt64), Value::Double(-3.5),
                   Value::String(""), Value::Null(DataType::kDate),
                   Value::Bool(false)});

  std::string path = TempPath("roundtrip.tbl");
  ASSERT_TRUE(tpch::WriteTbl(table, path).ok());
  auto loaded = tpch::ReadTbl("t2", schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->num_rows(), 2u);
  TupleView row0 = (*loaded)->view(0);
  EXPECT_EQ(row0.GetInt64(0), 42);
  EXPECT_DOUBLE_EQ(row0.GetDouble(1), 1.25);
  EXPECT_EQ(row0.GetString(2), "hello world");
  EXPECT_EQ(row0.GetDate(3), 10592);
  EXPECT_TRUE(row0.GetBool(4));
  TupleView row1 = (*loaded)->view(1);
  EXPECT_TRUE(row1.IsNull(0));
  EXPECT_TRUE(row1.IsNull(3));
  // Empty string round-trips as NULL in the .tbl format (documented).
  std::remove(path.c_str());
}

TEST(TblIoTest, TpchLineitemRoundTrip) {
  Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.build_indexes = false;
  ASSERT_TRUE(tpch::LoadTpch(config, &catalog).ok());
  Table* lineitem = catalog.GetTable("lineitem");

  std::string path = TempPath("lineitem.tbl");
  ASSERT_TRUE(tpch::WriteTbl(*lineitem, path).ok());
  auto loaded = tpch::ReadTbl("lineitem2", lineitem->schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->num_rows(), lineitem->num_rows());
  // Spot-check fields incl. doubles (rounded to 2 decimals by the format).
  for (size_t i = 0; i < lineitem->num_rows(); i += 131) {
    TupleView a = lineitem->view(i);
    TupleView b = (*loaded)->view(i);
    EXPECT_EQ(a.GetInt64(0), b.GetInt64(0));
    EXPECT_EQ(a.GetDate(10), b.GetDate(10));
    EXPECT_EQ(a.GetString(14), b.GetString(14));
    EXPECT_NEAR(a.GetDouble(5), b.GetDouble(5), 0.005);
  }
  std::remove(path.c_str());
}

TEST(TblIoTest, ReadRejectsMalformedLines) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  std::string path = TempPath("bad.tbl");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1|\n", f);  // Too few fields.
    std::fclose(f);
  }
  EXPECT_FALSE(tpch::ReadTbl("t", schema, path).ok());
  EXPECT_FALSE(tpch::ReadTbl("t", schema, TempPath("nope.tbl")).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bufferdb
