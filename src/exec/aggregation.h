#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

enum class AggFunc : uint8_t {
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

const char* AggFuncName(AggFunc func);

/// One aggregate in the SELECT list, e.g. SUM(l_extendedprice * (1 - ...)).
struct AggSpec {
  AggFunc func;
  ExprPtr arg;  // Null for COUNT(*).
  std::string output_name;
};

/// Output column type of an aggregate over an argument of type `arg_type`.
DataType AggOutputType(AggFunc func, DataType arg_type);

/// The one running state every aggregation operator and the parallel merge
/// share (SQL semantics: NULL inputs are ignored; empty input yields NULL
/// except COUNT which yields 0). `count` is the number of inputs folded in
/// (non-NULL ones, except for COUNT(*)). Integer SUM/AVG inputs add to both
/// sums; the output type picks one at Final. MIN/MAX keep a typed extremum:
/// `int_ext` for bool/int64/date inputs, `double_ext` for doubles, and a
/// boxed Value only for strings.
struct AggAccumulator {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  int64_t int_ext = 0;
  double double_ext = 0;
  Value string_ext;

  /// Folds one boxed input (the tuple-at-a-time path).
  void Update(AggFunc func, const Value& v);

  /// Column-at-a-time form of Update over lanes [0, n) of `col` (nullptr
  /// for COUNT(*)), in lane order. Lane i folds into
  /// `states[group[i] * stride]`, or into `states[0]` when `group` is null
  /// (scalar aggregation). `col` holds numeric lanes: strings never compile.
  static void UpdateColumn(AggFunc func, const ColumnVector* col, size_t n,
                           const uint32_t* group, size_t stride,
                           AggAccumulator* states);

  /// Folds in `other`, a state of the same aggregate over a disjoint part
  /// of the input (the parallel merge).
  void Merge(AggFunc func, const AggAccumulator& other);

  Value Final(AggFunc func, DataType output_type) const;
};

/// Scalar (ungrouped) aggregation: consumes the whole input, emits exactly
/// one row. Instruction-wise it interleaves with its input per tuple, so the
/// refiner treats it as part of the pipeline (it is *not* a pipeline breaker
/// in the paper's sense; compare Fig. 5 where Scan and Aggregation form
/// candidate execution groups).
///
/// With `set_batch_size(n > 1)` and every argument compiled to a kernel
/// program, the load drains the child through NextBatch and folds each
/// argument column-at-a-time (AggAccumulator::UpdateColumn). It reads only
/// the arguments' input columns, so it asks the child for batches without
/// rows (Operator::OmitRows). Default is the paper-faithful
/// tuple-at-a-time load.
class AggregationOperator final : public Operator {
 public:
  AggregationOperator(OperatorPtr child, std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kAggregation;
  }
  std::string label() const override;

  /// Input batch width for the load; <= 1 selects the tuple-at-a-time load.
  /// Takes effect at the next Open.
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  const std::vector<AggSpec>& specs() const { return specs_; }

 private:
  void Load();
  void LoadBatched();

  std::vector<AggSpec> specs_;
  Schema output_schema_;
  std::vector<AggAccumulator> accs_;
  bool done_ = false;

  size_t batch_size_ = 1;
  // One program per argument (nullptr for COUNT(*)), compiled at plan time;
  // the batched load runs only when every argument compiled.
  std::vector<std::unique_ptr<CompiledExpr>> arg_compiled_;
  bool args_compiled_ = false;
  std::vector<int> decode_cols_;  // Union of the programs' input columns.
  std::vector<const uint8_t*> batch_rows_;
  VectorBatch vbatch_;
};

/// Appends the simulator functions an aggregate contributes to the module
/// footprint (AVG adds SUM's code plus its own, per Table 2 calibration).
void AppendAggFuncs(AggFunc func, std::vector<sim::FuncId>* funcs);

}  // namespace bufferdb
