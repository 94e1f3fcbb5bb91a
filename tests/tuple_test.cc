#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/arena.h"
#include "storage/tuple.h"

namespace bufferdb {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"flag", DataType::kBool},
                 {"name", DataType::kString},
                 {"day", DataType::kDate}});
}

TEST(TupleTest, RoundTripAllTypes) {
  Schema schema = TestSchema();
  Arena arena;
  TupleBuilder b(&schema);
  b.SetInt64(0, 42);
  b.SetDouble(1, 3.25);
  b.SetBool(2, true);
  b.SetString(3, "hello world");
  b.SetDate(4, 10592);
  const uint8_t* row = b.Finish(&arena);

  TupleView v(row, &schema);
  EXPECT_EQ(v.GetInt64(0), 42);
  EXPECT_DOUBLE_EQ(v.GetDouble(1), 3.25);
  EXPECT_TRUE(v.GetBool(2));
  EXPECT_EQ(v.GetString(3), "hello world");
  EXPECT_EQ(v.GetDate(4), 10592);
  for (size_t c = 0; c < 5; ++c) EXPECT_FALSE(v.IsNull(c));
}

TEST(TupleTest, NullBitmap) {
  Schema schema = TestSchema();
  Arena arena;
  TupleBuilder b(&schema);
  b.SetInt64(0, 1);
  b.SetNull(1);
  b.SetBool(2, false);
  b.SetNull(3);
  b.SetDate(4, 0);
  const uint8_t* row = b.Finish(&arena);

  TupleView v(row, &schema);
  EXPECT_FALSE(v.IsNull(0));
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_FALSE(v.IsNull(2));
  EXPECT_TRUE(v.IsNull(3));
  EXPECT_FALSE(v.IsNull(4));
  EXPECT_TRUE(v.GetValue(1).is_null());
  EXPECT_EQ(v.GetValue(1).type(), DataType::kDouble);
}

TEST(TupleTest, SizeAccountsForStrings) {
  Schema schema = TestSchema();
  Arena arena;
  TupleBuilder b(&schema);
  b.SetInt64(0, 1);
  b.SetDouble(1, 0);
  b.SetBool(2, false);
  b.SetString(3, std::string(100, 'x'));
  b.SetDate(4, 0);
  const uint8_t* row = b.Finish(&arena);
  TupleView v(row, &schema);
  EXPECT_EQ(v.size_bytes(), schema.fixed_bytes() + 100);
  EXPECT_EQ(v.GetString(3).size(), 100u);
}

TEST(TupleTest, EmptyString) {
  Schema schema({{"s", DataType::kString}});
  Arena arena;
  TupleBuilder b(&schema);
  b.SetString(0, "");
  const uint8_t* row = b.Finish(&arena);
  TupleView v(row, &schema);
  EXPECT_EQ(v.GetString(0), "");
  EXPECT_FALSE(v.IsNull(0));
}

TEST(TupleTest, MultipleStringsKeepOffsets) {
  Schema schema({{"a", DataType::kString},
                 {"b", DataType::kString},
                 {"c", DataType::kString}});
  Arena arena;
  TupleBuilder b(&schema);
  b.SetString(0, "first");
  b.SetString(1, "");
  b.SetString(2, "third-string");
  const uint8_t* row = b.Finish(&arena);
  TupleView v(row, &schema);
  EXPECT_EQ(v.GetString(0), "first");
  EXPECT_EQ(v.GetString(1), "");
  EXPECT_EQ(v.GetString(2), "third-string");
}

TEST(TupleTest, GetValueBoxes) {
  Schema schema = TestSchema();
  Arena arena;
  TupleBuilder b(&schema);
  b.SetInt64(0, 9);
  b.SetDouble(1, 1.5);
  b.SetBool(2, true);
  b.SetString(3, "s");
  b.SetDate(4, 3);
  const uint8_t* row = b.Finish(&arena);
  TupleView v(row, &schema);
  EXPECT_EQ(v.GetValue(0), Value::Int64(9));
  EXPECT_EQ(v.GetValue(1), Value::Double(1.5));
  EXPECT_EQ(v.GetValue(3), Value::String("s"));
}

TEST(TupleTest, BuilderResetClearsValues) {
  Schema schema({{"a", DataType::kInt64}});
  Arena arena;
  TupleBuilder b(&schema);
  b.SetInt64(0, 5);
  b.Finish(&arena);
  b.Reset();
  const uint8_t* row = b.Finish(&arena);
  EXPECT_TRUE(TupleView(row, &schema).IsNull(0));
}

TEST(TupleTest, ConcatRowsJoinsFields) {
  Schema left({{"a", DataType::kInt64}, {"s", DataType::kString}});
  Schema right({{"b", DataType::kDouble}, {"t", DataType::kString}});
  Schema out = Schema::Concat(left, right);
  Arena arena;

  TupleBuilder lb(&left);
  lb.SetInt64(0, 11);
  lb.SetString(1, "left");
  const uint8_t* lrow = lb.Finish(&arena);

  TupleBuilder rb(&right);
  rb.SetNull(0);
  rb.SetString(1, "right");
  const uint8_t* rrow = rb.Finish(&arena);

  const uint8_t* joined =
      TupleBuilder::ConcatRows(out, left, lrow, right, rrow, &arena);
  TupleView v(joined, &out);
  EXPECT_EQ(v.GetInt64(0), 11);
  EXPECT_EQ(v.GetString(1), "left");
  EXPECT_TRUE(v.IsNull(2));
  EXPECT_EQ(v.GetString(3), "right");
}

TEST(TupleTest, ConcatRowsToStringMatchesManualBuild) {
  Schema left({{"a", DataType::kInt64}});
  Schema right({{"b", DataType::kInt64}});
  Schema out = Schema::Concat(left, right);
  Arena arena;
  TupleBuilder lb(&left), rb(&right), ob(&out);
  lb.SetInt64(0, 1);
  rb.SetInt64(0, 2);
  ob.SetInt64(0, 1);
  ob.SetInt64(1, 2);
  const uint8_t* joined = TupleBuilder::ConcatRows(
      out, left, lb.Finish(&arena), right, rb.Finish(&arena), &arena);
  const uint8_t* direct = ob.Finish(&arena);
  EXPECT_EQ(TupleView(joined, &out).ToString(),
            TupleView(direct, &out).ToString());
}

// ConcatRows with and without a column list: the row must be byte for byte
// the one Finish() builds from the same values (header, null bitmap, zeroed
// NULL slots, strings packed in output column order).
TEST(TupleTest, ConcatRowsWithColumnsIsByteIdenticalToFinish) {
  Schema left({{"a", DataType::kInt64},
               {"s", DataType::kString},
               {"d", DataType::kDouble},
               {"n", DataType::kString}});
  Schema right({{"b", DataType::kDate},
                {"t", DataType::kString},
                {"u", DataType::kInt64},
                {"w", DataType::kString}});
  Arena arena;
  TupleBuilder lb(&left);
  lb.SetInt64(0, -7);
  lb.SetString(1, "left side");
  lb.SetDouble(2, 2.5);
  lb.SetNull(3);
  const uint8_t* lrow = lb.Finish(&arena);
  TupleBuilder rb(&right);
  rb.SetDate(0, 9000);
  rb.SetString(1, "rt");
  rb.SetNull(2);
  rb.SetString(3, "");
  const uint8_t* rrow = rb.Finish(&arena);

  const std::vector<Value> values = {
      Value::Int64(-7), Value::String("left side"), Value::Double(2.5),
      Value::Null(DataType::kString), Value::Date(9000), Value::String("rt"),
      Value::Null(DataType::kInt64), Value::String("")};
  // A subset of both sides, reordered, with a NULL from each and the
  // strings out of their source order; then every column.
  const std::vector<std::vector<int>> lists = {{5, 2, 1, 6, 3, 4, 0}, {}};
  for (const std::vector<int>& columns : lists) {
    Schema out = Schema::Concat(left, right, columns);
    ASSERT_EQ(out.num_columns(), columns.empty() ? 8u : columns.size());
    TupleBuilder expected(&out);
    for (size_t i = 0; i < out.num_columns(); ++i) {
      const size_t c = columns.empty() ? i : static_cast<size_t>(columns[i]);
      EXPECT_EQ(out.column(i).name,
                c < 4 ? left.column(c).name : right.column(c - 4).name);
      expected.Set(i, values[c]);
    }
    const uint8_t* direct = expected.Finish(&arena);
    const uint8_t* joined = TupleBuilder::ConcatRows(out, left, lrow, right,
                                                     rrow, &arena, columns);
    const uint32_t size = TupleView(direct, &out).size_bytes();
    ASSERT_EQ(TupleView(joined, &out).size_bytes(), size);
    EXPECT_EQ(std::memcmp(joined, direct, size), 0)
        << TupleView(joined, &out).ToString() << " vs "
        << TupleView(direct, &out).ToString();
  }
}

// A bare-column projection's copy: byte for byte the row Finish() builds
// from the same values, and both write the header's reserved bytes 4-7 as
// zero, since arena chunks are not zeroed.
TEST(TupleTest, CopyColumnsIsByteIdenticalToFinish) {
  Schema in = TestSchema();
  Arena arena;
  TupleBuilder b(&in);
  b.SetInt64(0, 42);
  b.SetNull(1);
  b.SetBool(2, true);
  b.SetString(3, "copied");
  b.SetDate(4, 10592);
  const uint8_t* row = b.Finish(&arena);

  // Reordered, with a NULL, and the string column twice.
  const std::vector<int> columns = {3, 1, 4, 3, 0};
  std::vector<Column> out_cols;
  for (int c : columns) out_cols.push_back(in.column(c));
  Schema out(out_cols);
  TupleBuilder expected(&out);
  for (size_t i = 0; i < columns.size(); ++i) {
    expected.Set(i, TupleView(row, &in).GetValue(columns[i]));
  }
  const uint8_t* direct = expected.Finish(&arena);
  const uint8_t* copy =
      TupleBuilder::CopyColumns(out, in, row, &arena, columns);

  const uint32_t size = TupleView(direct, &out).size_bytes();
  ASSERT_EQ(TupleView(copy, &out).size_bytes(), size);
  EXPECT_EQ(std::memcmp(copy, direct, size), 0)
      << TupleView(copy, &out).ToString() << " vs "
      << TupleView(direct, &out).ToString();
  const uint8_t kZero[4] = {0, 0, 0, 0};
  EXPECT_EQ(std::memcmp(row + 4, kZero, 4), 0);
  EXPECT_EQ(std::memcmp(direct + 4, kZero, 4), 0);
  EXPECT_EQ(std::memcmp(copy + 4, kZero, 4), 0);
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

// Append-form name builder: `"s" + std::to_string(i)` trips gcc 12's -O3
// -Wrestrict false positive (PR105651) under -Werror.
std::string NumberedName(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

TEST(WideSchemaTest, FortyColumnsRoundTrip) {
  // Joined TPC-H schemas exceed 32 columns; the 64-bit null bitmap must
  // address all of them.
  std::vector<Column> cols;
  for (int i = 0; i < 40; ++i) {
    cols.push_back(Column{NumberedName("c", i),
                          i % 3 == 0 ? DataType::kString : DataType::kInt64});
  }
  Schema schema(cols);
  Arena arena;
  TupleBuilder b(&schema);
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 0) {
      b.SetNull(i);
    } else if (i % 3 == 0) {
      b.SetString(i, NumberedName("s", i));
    } else {
      b.SetInt64(i, i * 100);
    }
  }
  const uint8_t* row = b.Finish(&arena);
  TupleView v(row, &schema);
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 0) {
      EXPECT_TRUE(v.IsNull(i)) << i;
    } else if (i % 3 == 0) {
      EXPECT_EQ(v.GetString(i), NumberedName("s", i)) << i;
    } else {
      EXPECT_EQ(v.GetInt64(i), i * 100) << i;
    }
  }
}

TEST(WideSchemaTest, ConcatAcross32ColumnBoundary) {
  std::vector<Column> left_cols, right_cols;
  for (int i = 0; i < 30; ++i) {
    left_cols.push_back(Column{NumberedName("l", i), DataType::kInt64});
  }
  for (int i = 0; i < 10; ++i) {
    right_cols.push_back(Column{NumberedName("r", i), DataType::kInt64});
  }
  Schema left(left_cols), right(right_cols);
  Schema out = Schema::Concat(left, right);
  ASSERT_EQ(out.num_columns(), 40u);

  Arena arena;
  TupleBuilder lb(&left), rb(&right);
  for (int i = 0; i < 30; ++i) lb.SetInt64(i, i);
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      rb.SetNull(i);
    } else {
      rb.SetInt64(i, 1000 + i);
    }
  }
  const uint8_t* joined = TupleBuilder::ConcatRows(
      out, left, lb.Finish(&arena), right, rb.Finish(&arena), &arena);
  TupleView v(joined, &out);
  EXPECT_EQ(v.GetInt64(29), 29);
  // Columns 30..39 come from the right side: nulls must land past bit 31.
  EXPECT_TRUE(v.IsNull(30));
  EXPECT_EQ(v.GetInt64(31), 1001);
  EXPECT_TRUE(v.IsNull(38));
  EXPECT_EQ(v.GetInt64(39), 1009);
}

}  // namespace
}  // namespace bufferdb
