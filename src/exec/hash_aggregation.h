#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/aggregation.h"
#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

struct GroupKeyExpr {
  ExprPtr expr;
  std::string output_name;
};

/// Appends the group-key bytes of column `c` of `view` to *out: a type
/// byte, a NULL byte and, unless NULL, the payload (8 bytes for numerics, a
/// 4-byte length plus the bytes for strings). Keys are equal exactly when
/// their bytes are, so no two distinct doubles share a group; the parallel
/// merge groups partial rows with the same bytes.
void AppendGroupKey(const TupleView& view, size_t c, std::string* out);

/// GROUP BY aggregation over an in-memory hash table. Like scalar
/// aggregation it interleaves with its input per tuple (the hash table is
/// its own, separate data structure), so it participates in execution
/// groups; groups are emitted in first-seen order.
///
/// The table is a chained hash table over a flat entry vector (bucket
/// directory of indices + per-entry chain links), which makes the bucket
/// heads prefetchable. Aggregate states live in one flat
/// groups x aggregates AggAccumulator array. With `set_batch_size(n > 1)`
/// the load consumes the child through NextBatch in three steps per batch:
/// serialize and hash every lane's group key while prefetching its bucket,
/// resolve one group index per lane, then fold each aggregate
/// column-at-a-time into the flat array — overlapping the random DRAM
/// misses of up to `n` independent group lookups. Default is the
/// paper-faithful tuple-at-a-time load.
///
/// Keys and arguments compile independently. A key that is a bare column
/// reference (strings included) is serialized straight from the packed row;
/// other keys and every argument use their kernel program when it compiled
/// and the interpreter otherwise. The batched load requests the programs'
/// input columns from its child (RequestColumns), which leaves out a
/// bare-column key.
class HashAggregationOperator final : public Operator {
 public:
  HashAggregationOperator(OperatorPtr child, std::vector<GroupKeyExpr> groups,
                          std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kHashAggregation;
  }
  std::string label() const override;

  /// Input batch width for the load phase; <= 1 selects the tuple-at-a-time
  /// load. Takes effect at the next Open.
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

 private:
  struct Entry {
    uint64_t hash;
    int32_t next;     // Chain link into entries_, or -1.
    std::string key;  // Serialized group-key bytes.
  };

  void Load();
  void LoadBatched();
  /// Serializes the group key of `view` (lane `lane` of the current batch)
  /// into *out.
  void SerializeKey(const TupleView& view, size_t lane, std::string* out) const;
  /// Key `k` of `view` / lane `lane`, boxed for emission.
  Value KeyValue(size_t k, const TupleView& view, size_t lane) const;
  /// Index of the group with serialized key `key`, created (with the key
  /// values of `view` / lane `lane`) on first sight.
  uint32_t FindOrCreateGroup(const std::string& key, uint64_t hash,
                             const TupleView& view, size_t lane);
  void Rehash();

  std::vector<GroupKeyExpr> groups_;
  std::vector<AggSpec> specs_;
  Schema output_schema_;

  std::vector<int32_t> buckets_;      // Power-of-two directory, -1 empty.
  std::vector<Entry> entries_;        // Insertion order == emit order.
  std::vector<Value> key_values_;     // groups x keys, for emission.
  std::vector<AggAccumulator> states_;  // groups x aggregates.
  size_t emit_pos_ = 0;
  bool loaded_ = false;

  size_t batch_size_ = 1;
  std::vector<const uint8_t*> batch_rows_;  // LoadBatched scratch.
  std::vector<std::string> batch_keys_;
  std::vector<uint64_t> batch_hashes_;
  std::vector<uint32_t> batch_groups_;

  // Per key: the input column of a bare column reference (-1 otherwise),
  // and for the other keys the kernel program when it compiled. Per
  // argument: its program (nullptr for COUNT(*) or when it did not
  // compile). All compiled at plan time.
  std::vector<int> key_cols_;
  std::vector<std::unique_ptr<CompiledExpr>> key_compiled_;
  std::vector<std::unique_ptr<CompiledExpr>> arg_compiled_;
  std::vector<int> decode_cols_;  // Union of the programs' input columns.
  VectorBatch vbatch_;
  // Key program results of the current batch; nullptr where the key is
  // read from the row or interpreted (always, on the tuple path).
  std::vector<const ColumnVector*> key_vecs_;
};

}  // namespace bufferdb
