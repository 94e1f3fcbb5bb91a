#include "storage/column_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "storage/table.h"
#include "storage/tuple.h"

namespace bufferdb {

namespace {

/// Zone maps for one segment: one ZoneMap per kZoneBlockRows rows.
void BuildZones(ColumnSegment* seg, size_t num_rows) {
  seg->zones.clear();
  for (size_t begin = 0; begin < num_rows; begin += kZoneBlockRows) {
    ZoneMap z;
    z.rows = std::min(kZoneBlockRows, num_rows - begin);
    bool seen = false;
    for (size_t i = begin; i < begin + z.rows; ++i) {
      if (seg->nulls[i]) {
        ++z.null_count;
        continue;
      }
      if (seg->type == DataType::kDouble) {
        double v = seg->f64[i];
        if (std::isnan(v)) {
          z.has_nan = true;
          continue;
        }
        if (!seen || v < z.min_f64) z.min_f64 = v;
        if (!seen || v > z.max_f64) z.max_f64 = v;
      } else {
        int64_t v = seg->type == DataType::kString
                        ? static_cast<int64_t>(seg->codes[i])
                        : seg->i64[i];
        if (!seen || v < z.min_i64) z.min_i64 = v;
        if (!seen || v > z.max_i64) z.max_i64 = v;
      }
      seen = true;
    }
    seg->zones.push_back(z);
  }
}

}  // namespace

std::unique_ptr<ColumnarTable> ColumnarTable::Build(const Table& table) {
  auto ct = std::unique_ptr<ColumnarTable>(new ColumnarTable());
  const Schema& schema = table.schema();
  const size_t num_rows = table.num_rows();
  ct->num_rows_ = num_rows;
  ct->segments_.resize(schema.num_columns());

  for (size_t col = 0; col < schema.num_columns(); ++col) {
    ColumnSegment& seg = ct->segments_[col];
    seg.type = schema.column(col).type;
    seg.nulls.assign(num_rows, 0);

    switch (seg.type) {
      case DataType::kDouble: {
        seg.f64.assign(num_rows, 0.0);
        for (size_t i = 0; i < num_rows; ++i) {
          TupleView row = table.view(i);
          if (row.IsNull(col)) {
            seg.nulls[i] = 1;
          } else {
            seg.f64[i] = row.GetDouble(col);
          }
        }
        break;
      }
      case DataType::kString: {
        // Pass 1: the sorted dictionary of distinct non-NULL values.
        // string_views into the table's arena stay valid for the whole
        // build, so sorting views avoids copying every row's string twice.
        std::vector<std::string_view> values(num_rows);
        std::vector<std::string_view> distinct;
        distinct.reserve(num_rows);
        for (size_t i = 0; i < num_rows; ++i) {
          TupleView row = table.view(i);
          if (row.IsNull(col)) {
            seg.nulls[i] = 1;
          } else {
            values[i] = row.GetString(col);
            distinct.push_back(values[i]);
          }
        }
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        seg.dict.assign(distinct.begin(), distinct.end());
        // Pass 2: per-row codes. NULL rows keep code 0 (zero payload under
        // NULL, the ColumnVector invariant).
        seg.codes.assign(num_rows, 0);
        for (size_t i = 0; i < num_rows; ++i) {
          if (seg.nulls[i]) continue;
          auto it =
              std::lower_bound(distinct.begin(), distinct.end(), values[i]);
          seg.codes[i] = static_cast<int32_t>(it - distinct.begin());
        }
        break;
      }
      default: {  // kBool / kInt64 / kDate: one inline int64 payload.
        seg.i64.assign(num_rows, 0);
        for (size_t i = 0; i < num_rows; ++i) {
          TupleView row = table.view(i);
          if (row.IsNull(col)) {
            seg.nulls[i] = 1;
          } else if (seg.type == DataType::kBool) {
            seg.i64[i] = row.GetBool(col) ? 1 : 0;
          } else {
            seg.i64[i] = row.GetInt64(col);
          }
        }
        break;
      }
    }
    BuildZones(&seg, num_rows);
  }
  return ct;
}

bool ColumnarTable::HasDict(int col) const {
  return col >= 0 && static_cast<size_t>(col) < segments_.size() &&
         segments_[static_cast<size_t>(col)].type == DataType::kString;
}

int64_t ColumnarTable::CodeOf(int col, std::string_view s) const {
  assert(HasDict(col));
  const auto& dict = segments_[static_cast<size_t>(col)].dict;
  auto it = std::lower_bound(dict.begin(), dict.end(), s);
  if (it == dict.end() || *it != s) return -1;
  return it - dict.begin();
}

bool ColumnarTable::PrefixRange(int col, std::string_view prefix, int64_t* lo,
                                int64_t* hi) const {
  assert(HasDict(col));
  const auto& dict = segments_[static_cast<size_t>(col)].dict;
  // Upper end of the prefix range: the prefix with its last byte bumped.
  // A prefix ending in 0xff has no such successor of the same length; bail
  // to the interpreter rather than reason about shorter successors.
  if (!prefix.empty() &&
      static_cast<unsigned char>(prefix.back()) == 0xffu) {
    return false;
  }
  *lo = std::lower_bound(dict.begin(), dict.end(), prefix) - dict.begin();
  if (prefix.empty()) {
    *hi = static_cast<int64_t>(dict.size());
    return true;
  }
  std::string upper(prefix);
  upper.back() = static_cast<char>(static_cast<unsigned char>(upper.back()) + 1);
  *hi = std::lower_bound(dict.begin(), dict.end(), upper) - dict.begin();
  return true;
}

int64_t ColumnarTable::LowerBound(int col, std::string_view s) const {
  assert(HasDict(col));
  const auto& dict = segments_[static_cast<size_t>(col)].dict;
  return std::lower_bound(dict.begin(), dict.end(), s) - dict.begin();
}

int64_t ColumnarTable::UpperBound(int col, std::string_view s) const {
  assert(HasDict(col));
  const auto& dict = segments_[static_cast<size_t>(col)].dict;
  return std::upper_bound(dict.begin(), dict.end(), s) - dict.begin();
}

}  // namespace bufferdb
