#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "catalog/value.h"

namespace bufferdb {

/// SoA column of decoded values for the vectorized expression engine
/// (DESIGN.md section 10).
///
/// Exactly one payload array is active, selected by `type`: `i64` for
/// kBool/kInt64/kDate (bools normalized to 0/1), `f64` for kDouble. Keeping
/// two typed vectors instead of one reinterpret_cast'ed byte buffer keeps the
/// kernels free of aliasing UB and lets the compiler vectorize the loops.
///
/// Invariant maintained by the decoder and every kernel: the payload of a
/// NULL lane is zero (the same normalization TupleBuilder applies to null
/// slots). Kernels may therefore read every lane branch-free — a NULL lane
/// can never inject garbage (e.g. an INT64_MIN / -1 trap) into the result.
///
/// A vector either OWNS its lanes (the `i64`/`f64`/`nulls` vectors, filled
/// by RowBatchDecoder or a kernel) or BORROWS them from columnar segment
/// storage via the `ext_*` pointers (set by ColumnScan — zero copy, zero
/// decode; DESIGN.md §12). Readers must go through the `*_data()` accessors,
/// which resolve to whichever representation is active; writers always
/// target the owned vectors (Reset clears any borrow first).
struct ColumnVector {
  DataType type = DataType::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> nulls;  // 1 = NULL.
  const int64_t* ext_i64 = nullptr;
  const double* ext_f64 = nullptr;
  const uint8_t* ext_nulls = nullptr;

  bool is_double() const { return type == DataType::kDouble; }
  bool aliased() const { return ext_nulls != nullptr; }

  const int64_t* i64_data() const { return ext_i64 ? ext_i64 : i64.data(); }
  const double* f64_data() const { return ext_f64 ? ext_f64 : f64.data(); }
  const uint8_t* null_data() const {
    return ext_nulls ? ext_nulls : nulls.data();
  }

  /// Prepares the vector to own `n` lanes of `t`; never shrinks capacity.
  /// Drops any segment borrow — callers that Reset then write lanes get the
  /// owned representation.
  void Reset(DataType t, size_t n) {
    type = t;
    ext_i64 = nullptr;
    ext_f64 = nullptr;
    ext_nulls = nullptr;
    nulls.resize(n);
    if (is_double()) {
      f64.resize(n);
    } else {
      i64.resize(n);
    }
  }

  /// Points this vector at integer-domain segment storage (kBool/kInt64/
  /// kDate, or dictionary codes widened by the caller). Borrowed arrays must
  /// outlive every read of this vector — in practice they belong to a
  /// ColumnarTable, which outlives query execution.
  void AliasI64(DataType t, const int64_t* vals, const uint8_t* null_bytes) {
    type = t;
    ext_i64 = vals;
    ext_f64 = nullptr;
    ext_nulls = null_bytes;
  }

  /// Points this vector at double segment storage.
  void AliasF64(const double* vals, const uint8_t* null_bytes) {
    type = DataType::kDouble;
    ext_f64 = vals;
    ext_i64 = nullptr;
    ext_nulls = null_bytes;
  }

  /// Points this vector at the lanes `src` holds, owned or borrowed; they
  /// must outlive every read of this vector.
  void AliasLanes(const ColumnVector& src) {
    if (src.is_double()) {
      AliasF64(src.f64_data(), src.null_data());
    } else {
      AliasI64(src.type, src.i64_data(), src.null_data());
    }
  }
};

/// Indexes of the lanes that survived a predicate, in lane order.
struct SelectionVector {
  std::vector<uint32_t> idx;
  size_t count = 0;
};

/// Makes `dst` own the lanes of `src` that `sel` selects, in its order.
/// `dst` must not be `src`.
inline void GatherLanes(const ColumnVector& src, const SelectionVector& sel,
                        ColumnVector* dst) {
  dst->Reset(src.type, sel.count);
  const uint32_t* idx = sel.idx.data();
  const uint8_t* src_nulls = src.null_data();
  uint8_t* dst_nulls = dst->nulls.data();
  if (src.is_double()) {
    const double* s = src.f64_data();
    double* d = dst->f64.data();
    for (size_t k = 0; k < sel.count; ++k) {
      d[k] = s[idx[k]];
      dst_nulls[k] = src_nulls[idx[k]];
    }
  } else {
    const int64_t* s = src.i64_data();
    int64_t* d = dst->i64.data();
    for (size_t k = 0; k < sel.count; ++k) {
      d[k] = s[idx[k]];
      dst_nulls[k] = src_nulls[idx[k]];
    }
  }
}

/// The decoded input columns of one row batch, shared by every kernel
/// program evaluated over that batch (one decode feeds the filter predicate,
/// all project items, join keys, ...). Vectors are keyed by the input
/// column index they were decoded from.
class VectorBatch {
 public:
  size_t rows() const { return rows_; }
  void set_rows(size_t n) { rows_ = n; }

  /// The vector for input column `col`, created on first use.
  ColumnVector* Mutable(int col) {
    for (Entry& e : cols_) {
      if (e.col == col) return &e.vec;
    }
    cols_.push_back(Entry{col, ColumnVector{}});
    return &cols_.back().vec;
  }

  /// The decoded vector for `col`; the column must have been decoded into
  /// this batch.
  const ColumnVector& Get(int col) const {
    for (const Entry& e : cols_) {
      if (e.col == col) return e.vec;
    }
    assert(false && "column not decoded into this VectorBatch");
    return cols_.front().vec;
  }

  /// The vector for `col` if present, else nullptr. Used by DecodeMissing
  /// to alias columns a producer already published instead of re-decoding
  /// them from packed rows.
  const ColumnVector* Find(int col) const {
    for (const Entry& e : cols_) {
      if (e.col == col) return &e.vec;
    }
    return nullptr;
  }

  /// Drops all columns (capacity retained by the entry vector itself).
  void Clear() { cols_.clear(); }

  /// The columns held, in the order they were first created: the input
  /// column index of the i-th, i < num_columns().
  size_t num_columns() const { return cols_.size(); }
  int column_at(size_t i) const { return cols_[i].col; }

 private:
  struct Entry {
    int col;
    ColumnVector vec;
  };
  size_t rows_ = 0;
  std::vector<Entry> cols_;
};

}  // namespace bufferdb
