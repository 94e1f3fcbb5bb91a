#include "exec/column_scan.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "expr/evaluator.h"

namespace bufferdb {

namespace {

// Whether some value in [lo, hi] passes `v <op> imm`.
template <typename T>
bool RangeMayPass(BinaryOp op, T lo, T hi, T imm) {
  switch (op) {
    case BinaryOp::kEq: return imm >= lo && imm <= hi;
    case BinaryOp::kNe: return !(lo == hi && lo == imm);
    case BinaryOp::kLt: return lo < imm;
    case BinaryOp::kLe: return lo <= imm;
    case BinaryOp::kGt: return hi > imm;
    default: return hi >= imm;
  }
}

// True when block `z` of test `t`'s column may hold a row passing `t`;
// false means the whole block is safely skippable. A test fails on NULL
// lanes, so a block of nothing but NULLs holds none, and an absent
// string's code -1 lies below every block's codes. Value::Compare orders
// doubles with `<`/`>`, so a NaN compares "equal" to everything: min/max
// bound no such lane, and a block holding one, or a NaN immediate, may
// always match.
bool BlockMayMatch(const ZoneMap& z, const ColumnTest& t) {
  if (z.null_count >= z.rows) return false;
  if (!t.f64) return RangeMayPass(t.op, z.min_i64, z.max_i64, t.imm_i64);
  if (z.has_nan || std::isnan(t.imm_f64)) return true;
  return RangeMayPass(t.op, z.min_f64, z.max_f64, t.imm_f64);
}

}  // namespace

ColumnScanOperator::ColumnScanOperator(Table* table, ExprPtr predicate)
    : table_(table),
      columnar_(table->columnar()),
      predicate_(predicate != nullptr ? FoldConstants(std::move(predicate))
                                      : nullptr) {
  assert(columnar_ != nullptr && "ColumnScan needs Table::AttachColumnar");
  InitHotFuncs(module_id());
  if (predicate_ != nullptr) {
    // Scalar fallback runs the tree-walking interpreter.
    AddHotFunc(sim::FuncId::kExprCmp);
    AddHotFunc(sim::FuncId::kExprArith);
    compiled_ = CompiledExpr::CompileFilter(*predicate_, table_->schema(),
                                            columnar_);
    if (compiled_ != nullptr) SetVectorBatchFuncs();
    // Every conjunct that is column tests prunes, compiled or not: a row
    // that passes the predicate passes each of them.
    std::vector<const Expression*> conjuncts;
    CollectConjuncts(*predicate_, &conjuncts);
    for (const Expression* conjunct : conjuncts) {
      ColumnTest tests[2];
      const size_t num = MatchColumnTests(*conjunct, columnar_, tests);
      zone_tests_.insert(zone_tests_.end(), tests, tests + num);
    }
  }
}

Status ColumnScanOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  range_.Reset(table_->num_rows());
  blocks_pruned_ = 0;
  stage_pos_ = 0;
  stage_n_ = 0;
  // A request lasts until the next Open.
  published_cols_.clear();
  published_.Clear();
  published_.set_rows(0);
  return Status::OK();
}

bool ColumnScanOperator::BlockPruned(size_t block) const {
  for (const ColumnTest& t : zone_tests_) {
    const ColumnSegment& seg =
        columnar_->segment(static_cast<size_t>(t.column));
    if (block >= seg.zones.size()) continue;
    if (!BlockMayMatch(seg.zones[block], t)) return true;
  }
  return false;
}

bool ColumnScanOperator::ClaimRun(size_t max, size_t* run) {
  while (range_.Claim()) {
    const size_t pos = range_.pos;
    const size_t end = range_.end;
    const size_t block = pos / kZoneBlockRows;
    const size_t block_end = std::min(end, (block + 1) * kZoneBlockRows);
    if (BlockPruned(block)) {
      ++blocks_pruned_;
      range_.pos = block_end;
      continue;
    }
    // Extend the run across consecutive unpruned blocks up to `max` rows;
    // a run never spans a pruned block (the skip happens on the next call)
    // and never a morsel boundary (range_.end).
    size_t run_end = block_end;
    while (run_end < end && run_end - pos < max) {
      const size_t next_block = run_end / kZoneBlockRows;
      if (BlockPruned(next_block)) break;
      run_end = std::min(end, (next_block + 1) * kZoneBlockRows);
    }
    *run = std::min(max, run_end - pos);
    return true;
  }
  return false;
}

void ColumnScanOperator::AliasSegment(int col, size_t n, ColumnVector* vec) {
  const ColumnSegment& seg = columnar_->segment(static_cast<size_t>(col));
  const size_t pos = range_.pos;
  if (seg.type == DataType::kDouble) {
    vec->AliasF64(seg.f64.data() + pos, seg.nulls.data() + pos);
    ctx_->Touch(seg.f64.data() + pos, n * sizeof(double));
  } else {
    vec->AliasI64(seg.type, seg.i64.data() + pos, seg.nulls.data() + pos);
    ctx_->Touch(seg.i64.data() + pos, n * sizeof(int64_t));
  }
  ctx_->Touch(seg.nulls.data() + pos, n);
}

void ColumnScanOperator::FillPredicateInputs(size_t n) {
  vbatch_.set_rows(n);
  const std::vector<int>& cols = compiled_->input_columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    ColumnVector* vec = vbatch_.Mutable(cols[i]);
    if (!compiled_->input_is_dict_code(i)) {
      AliasSegment(cols[i], n, vec);
      continue;
    }
    // Codes are stored int32; widen into an owned int64 vector (the one
    // materialization the dictionary path pays). NULL rows carry code 0,
    // preserving the zero-payload-under-NULL invariant.
    const ColumnSegment& seg =
        columnar_->segment(static_cast<size_t>(cols[i]));
    vec->Reset(DataType::kInt64, n);
    int64_t* out = vec->i64.data();
    uint8_t* nulls = vec->nulls.data();
    const int32_t* codes = seg.codes.data() + range_.pos;
    const uint8_t* seg_nulls = seg.nulls.data() + range_.pos;
    for (size_t k = 0; k < n; ++k) {
      out[k] = codes[k];
      nulls[k] = seg_nulls[k];
    }
    ctx_->Touch(codes, n * sizeof(int32_t));
    ctx_->Touch(seg_nulls, n);
  }
}

bool ColumnScanOperator::RequestColumns(std::span<const int> columns,
                                        bool rows) {
  (void)rows;  // The rows are the table's own; they are always returned.
  published_cols_.clear();
  for (int c : columns) {
    if (table_->schema().column(static_cast<size_t>(c)).type !=
        DataType::kString) {
      published_cols_.push_back(c);
    }
  }
  published_.Clear();
  published_.set_rows(0);
  return false;
}

void ColumnScanOperator::Publish(size_t run, size_t count) {
  published_.set_rows(count);
  ColumnVector segment;  // Borrows the run of a segment to gather from.
  for (int c : published_cols_) {
    ColumnVector* vec = published_.Mutable(c);
    if (count == run) {
      AliasSegment(c, run, vec);
    } else {
      AliasSegment(c, run, &segment);
      GatherLanes(segment, sel_, vec);
    }
  }
}

size_t ColumnScanOperator::NextBatch(const uint8_t** out, size_t max) {
  // Nothing is published unless this call returns a run of its own.
  published_.set_rows(0);
  // Rows Next() staged but has not returned yet go out first, so mixing the
  // two interfaces never skips or repeats a row. They are handed out
  // without columns.
  if (stage_pos_ < stage_n_) {
    const size_t k = std::min(max, stage_n_ - stage_pos_);
    std::copy_n(stage_.begin() + static_cast<ptrdiff_t>(stage_pos_), k, out);
    stage_pos_ += k;
    return k;
  }
  const Schema& schema = table_->schema();
  const bool vectorized = compiled_ != nullptr && vectorized_eval_;
  const std::vector<sim::FuncId>& funcs =
      vectorized ? hot_funcs_batched() : hot_funcs_;
  for (;;) {
    size_t run = 0;
    if (!ClaimRun(max, &run)) {
      ctx_->ExecModule(module_id(), funcs);  // End-of-scan.
      return 0;
    }
    const uint8_t* const* rows = table_->rows().data() + range_.pos;
    // One module execution per row considered; pruned blocks never get
    // here, which is the zone maps' instruction-count win.
    size_t count = run;
    if (predicate_ != nullptr && !vectorized) {
      for (size_t i = 0; i < run; ++i) {
        ctx_->ExecModule(module_id(), funcs);
        ctx_->Touch(rows[i], TupleView(rows[i], &schema).size_bytes());
      }
      // LINT: allow-scalar-eval(fallback: predicate did not compile)
      count = SelectRows(*predicate_, rows, run, schema, &sel_);
    } else {
      for (size_t i = 0; i < run; ++i) ctx_->ExecModule(module_id(), funcs);
      if (vectorized) {
        FillPredicateInputs(run);
        compiled_->RunFilter(vbatch_, &sel_);
        count = sel_.count;
      }
    }
    if (count == 0) {
      range_.pos += run;
      continue;  // Keep scanning: 0 means end-of-stream to callers.
    }
    if (count == run) {
      std::copy_n(rows, run, out);
    } else {
      for (size_t k = 0; k < count; ++k) out[k] = rows[sel_.idx[k]];
    }
    Publish(run, count);
    range_.pos += run;
    return count;
  }
}

const uint8_t* ColumnScanOperator::Next() {
  if (stage_pos_ == stage_n_) {
    stage_n_ = NextBatch(stage_.data(), stage_.size());
    stage_pos_ = 0;
    if (stage_n_ == 0) return nullptr;
  }
  return stage_[stage_pos_++];
}

void ColumnScanOperator::Close() {
  range_.Reset(0);
  stage_pos_ = 0;
  stage_n_ = 0;
  published_.set_rows(0);
}

Status ColumnScanOperator::Rescan() {
  range_.Reset(table_->num_rows());
  stage_pos_ = 0;
  stage_n_ = 0;
  published_.set_rows(0);
  return Status::OK();
}

std::string ColumnScanOperator::label() const {
  std::string out = "ColumnScan(" + table_->name();
  if (predicate_ != nullptr) {
    out += ", ";
    out += predicate_->ToString();
  }
  if (range_.morsel_mode()) out += ", morsel";
  out += ")";
  return out;
}

}  // namespace bufferdb
