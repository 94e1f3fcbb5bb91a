#include <gtest/gtest.h>

#include "storage/table.h"

namespace bufferdb {
namespace {

Schema SimpleSchema() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
}

TEST(TableTest, AppendAndRead) {
  Table t("t", SimpleSchema());
  for (int i = 0; i < 10; ++i) {
    t.AppendRow({Value::Int64(i), Value::Double(i * 0.5)});
  }
  ASSERT_EQ(t.num_rows(), 10u);
  for (int i = 0; i < 10; ++i) {
    TupleView v = t.view(i);
    EXPECT_EQ(v.GetInt64(0), i);
    EXPECT_DOUBLE_EQ(v.GetDouble(1), i * 0.5);
  }
}

TEST(TableTest, RowsAreStableAcrossAppends) {
  Table t("t", SimpleSchema());
  t.AppendRow({Value::Int64(1), Value::Double(1)});
  const uint8_t* first = t.row(0);
  for (int i = 0; i < 10000; ++i) {
    t.AppendRow({Value::Int64(i), Value::Double(i)});
  }
  EXPECT_EQ(t.row(0), first);
  EXPECT_EQ(TupleView(first, &t.schema()).GetInt64(0), 1);
}

TEST(TableTest, StatsMinMax) {
  Table t("t", SimpleSchema());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value::Int64(i - 50), Value::Double(i * 2.0)});
  }
  const ColumnStats& k = t.stats(0);
  ASSERT_TRUE(k.valid);
  EXPECT_DOUBLE_EQ(k.min, -50);
  EXPECT_DOUBLE_EQ(k.max, 49);
  const ColumnStats& v = t.stats(1);
  EXPECT_DOUBLE_EQ(v.min, 0);
  EXPECT_DOUBLE_EQ(v.max, 198);
}

TEST(TableTest, StatsCountNulls) {
  Table t("t", SimpleSchema());
  t.AppendRow({Value::Int64(1), Value::Null(DataType::kDouble)});
  t.AppendRow({Value::Int64(2), Value::Double(5)});
  t.AppendRow({Value::Int64(3), Value::Null(DataType::kDouble)});
  EXPECT_EQ(t.stats(1).null_count, 2u);
  EXPECT_DOUBLE_EQ(t.stats(1).min, 5);
}

TEST(TableTest, StatsInvalidForStrings) {
  Table t("t", Schema({{"s", DataType::kString}}));
  t.AppendRow({Value::String("x")});
  EXPECT_FALSE(t.stats(0).valid);
}

TEST(TableTest, StatsRecomputedAfterAppend) {
  Table t("t", SimpleSchema());
  t.AppendRow({Value::Int64(1), Value::Double(1)});
  EXPECT_DOUBLE_EQ(t.stats(0).max, 1);
  t.AppendRow({Value::Int64(99), Value::Double(1)});
  EXPECT_DOUBLE_EQ(t.stats(0).max, 99);
  TupleBuilder builder(&t.schema());
  builder.Set(0, Value::Int64(500));
  builder.Set(1, Value::Double(1));
  t.Append(builder);
  EXPECT_DOUBLE_EQ(t.stats(0).max, 500);
}

TEST(TableTest, StatsEmptyTable) {
  Table t("t", SimpleSchema());
  EXPECT_FALSE(t.stats(0).valid);
}

}  // namespace
}  // namespace bufferdb
