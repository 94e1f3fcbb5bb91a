#include "exec/row_batch_decoder.h"

#include <cstring>

#include "storage/tuple.h"

namespace bufferdb {

void RowBatchDecoder::Decode(const uint8_t* const* rows, size_t n,
                             const Schema& schema,
                             std::span<const int> columns,
                             VectorBatch* batch) {
  batch->set_rows(n);
  // One column at a time: VectorBatch::Mutable may reallocate its column
  // table, so earlier pointers must not be held across calls.
  for (int col : columns) {
    const DataType type = schema.column(static_cast<size_t>(col)).type;
    ColumnVector* vec = batch->Mutable(col);
    vec->Reset(type, n);
    const size_t slot_off =
        Schema::kHeaderBytes + 8 * static_cast<size_t>(col);
    uint8_t* nulls = vec->nulls.data();
    if (type == DataType::kDouble) {
      double* out = vec->f64.data();
      for (size_t i = 0; i < n; ++i) {
        const uint8_t* row = rows[i];
        uint64_t bitmap;
        std::memcpy(&bitmap, row + 8, 8);
        nulls[i] = static_cast<uint8_t>((bitmap >> col) & 1u);
        std::memcpy(&out[i], row + slot_off, 8);
      }
    } else if (type == DataType::kBool) {
      int64_t* out = vec->i64.data();
      for (size_t i = 0; i < n; ++i) {
        const uint8_t* row = rows[i];
        uint64_t bitmap;
        std::memcpy(&bitmap, row + 8, 8);
        nulls[i] = static_cast<uint8_t>((bitmap >> col) & 1u);
        int64_t raw;
        std::memcpy(&raw, row + slot_off, 8);
        out[i] = raw != 0 ? 1 : 0;  // Same normalization as GetBool.
      }
    } else {
      int64_t* out = vec->i64.data();
      for (size_t i = 0; i < n; ++i) {
        const uint8_t* row = rows[i];
        uint64_t bitmap;
        std::memcpy(&bitmap, row + 8, 8);
        nulls[i] = static_cast<uint8_t>((bitmap >> col) & 1u);
        std::memcpy(&out[i], row + slot_off, 8);
      }
    }
  }
}

void RowBatchDecoder::DecodeMissing(const uint8_t* const* rows, size_t n,
                                    const Schema& schema,
                                    std::span<const int> columns,
                                    const VectorBatch* published,
                                    VectorBatch* batch) {
  batch->set_rows(n);
  for (int col : columns) {
    const ColumnVector* pub =
        (published != nullptr && published->rows() == n)
            ? published->Find(col)
            : nullptr;
    if (pub != nullptr) {
      batch->Mutable(col)->AliasLanes(*pub);
      continue;
    }
    const int one[] = {col};
    Decode(rows, n, schema, one, batch);
  }
  batch->set_rows(n);
}

void EvaluateJoinKeys(CompiledExpr* program, const Expression& key,
                      const uint8_t* const* rows, size_t n,
                      const Schema& schema, const VectorBatch* published,
                      VectorBatch* vbatch, int64_t* keys, uint8_t* valid) {
  if (program != nullptr) {
    RowBatchDecoder::DecodeMissing(rows, n, schema, program->input_columns(),
                                   published, vbatch);
    const ColumnVector& out = program->Run(*vbatch);
    const uint8_t* nulls = out.null_data();
    const int64_t* vals = out.i64_data();
    for (size_t i = 0; i < n; ++i) {
      valid[i] = nulls[i] == 0 ? 1 : 0;
      keys[i] = vals[i];
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    // LINT: allow-scalar-eval(fallback: the key did not compile)
    const Value v = key.Evaluate(TupleView(rows[i], &schema));
    valid[i] = v.is_null() ? 0 : 1;
    keys[i] = v.is_null() ? 0 : v.int64_value();
  }
}

}  // namespace bufferdb
