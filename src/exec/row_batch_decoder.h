#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "catalog/schema.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// Decomposes a batch of packed row pointers (the NextBatch currency) into
/// SoA ColumnVectors for the vectorized expression engine. Only the columns
/// a kernel program actually reads are decoded; the row pointers themselves
/// remain the batch currency between operators, so decoding is a per-operator
/// view, not a format change.
class RowBatchDecoder {
 public:
  /// Decodes `columns` of the `n` rows into `batch`. Column payloads follow
  /// the ColumnVector conventions: bools normalized to 0/1, doubles in the
  /// f64 array, NULL lanes with payload zero (guaranteed because
  /// TupleBuilder zeroes null slots in the row format).
  static void Decode(const uint8_t* const* rows, size_t n,
                     const Schema& schema, std::span<const int> columns,
                     VectorBatch* batch);

  /// Like Decode, but columns already present in `published` (the producing
  /// child's BatchColumns(), covering exactly these `n` rows) are aliased
  /// into `batch` instead of re-decoded — the fix for the repeated-decode
  /// waste in Filter->Project chains: each column is materialized at most
  /// once per pipeline, and never at all above a ColumnScan. `published`
  /// may be nullptr (degrades to Decode). Aliased entries borrow the
  /// producer's storage and follow the BatchColumns() lifetime rule: use
  /// them before pulling the next batch from the producer.
  static void DecodeMissing(const uint8_t* const* rows, size_t n,
                            const Schema& schema, std::span<const int> columns,
                            const VectorBatch* published, VectorBatch* batch);
};

/// The key loop of the joins (the hash join's build and probe, the index
/// join's outer side): the int64 join key of each of rows[0..n) into
/// keys[i], with valid[i] = 0 where it is NULL. With `program` (the key
/// compiled and batch evaluation on) the program's inputs are aliased from
/// `published` or decoded into `vbatch` (DecodeMissing) and it runs once
/// over the batch; otherwise `key` is interpreted row by row.
void EvaluateJoinKeys(CompiledExpr* program, const Expression& key,
                      const uint8_t* const* rows, size_t n,
                      const Schema& schema, const VectorBatch* published,
                      VectorBatch* vbatch, int64_t* keys, uint8_t* valid);

}  // namespace bufferdb
