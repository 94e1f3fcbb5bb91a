// Tests for the extensions beyond the paper's core: calibration persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "profile/calibration_io.h"
#include "sim/code_layout.h"

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

}  // namespace
}  // namespace bufferdb
