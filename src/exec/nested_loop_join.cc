#include "exec/nested_loop_join.h"

#include <algorithm>

#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

NestLoopJoinOperator::NestLoopJoinOperator(OperatorPtr outer, OperatorPtr inner,
                                           ExprPtr join_predicate)
    : join_predicate_(std::move(join_predicate)) {
  output_schema_ =
      Schema::Concat(outer->output_schema(), inner->output_schema());
  AddChild(std::move(outer));
  AddChild(std::move(inner));
  InitHotFuncs(module_id());
  if (join_predicate_ != nullptr) AddHotFunc(sim::FuncId::kExprCmp);
}

Status NestLoopJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  need_outer_ = true;
  outer_row_ = nullptr;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  return child(1)->Open(ctx);
}

const uint8_t* NestLoopJoinOperator::Next() {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = child(1)->output_schema();
  while (true) {
    if (need_outer_) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      outer_row_ = child(0)->Next();
      if (outer_row_ == nullptr) return nullptr;
      Status st = child(1)->Rescan();
      if (!st.ok()) {
        ctx_->RecordError(std::move(st));
        return nullptr;
      }
      need_outer_ = false;
    }
    const uint8_t* inner_row = child(1)->Next();
    if (inner_row == nullptr) {
      need_outer_ = true;
      continue;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    const uint8_t* combined =
        TupleBuilder::ConcatRows(output_schema_, outer_schema, outer_row_,
                                 inner_schema, inner_row, &ctx_->arena);
    TupleView view(combined, &output_schema_);
    ctx_->Touch(combined, view.size_bytes());
    if (join_predicate_ == nullptr ||
        EvaluatePredicate(*join_predicate_, view)) {
      return combined;
    }
  }
}

void NestLoopJoinOperator::Close() {
  child(0)->Close();
  child(1)->Close();
}

IndexNestLoopJoinOperator::IndexNestLoopJoinOperator(
    OperatorPtr outer, std::unique_ptr<IndexScanOperator> inner,
    ExprPtr outer_key_expr, std::vector<int> columns)
    : outer_key_expr_(std::move(outer_key_expr)), columns_(std::move(columns)) {
  output_schema_ = Schema::Concat(outer->output_schema(),
                                  inner->output_schema(), columns_);
  inner_scan_ = inner.get();
  AddChild(std::move(outer));
  AddChild(std::move(inner));
  InitHotFuncs(module_id());
  // Keys flow through int64 payloads, as in Next()'s int64_value().
  key_compiled_ =
      CompiledExpr::Compile(*outer_key_expr_, child(0)->output_schema());
  if (key_compiled_ != nullptr &&
      key_compiled_->result_type() == DataType::kDouble) {
    key_compiled_.reset();
  }
}

Status IndexNestLoopJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  need_outer_ = true;
  outer_row_ = nullptr;
  outer_pos_ = 0;
  outer_n_ = 0;
  omit_rows_ = false;
  publish_cols_.clear();
  outer_cols_.clear();
  outer_requested_ = false;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  return child(1)->Open(ctx);
}

bool IndexNestLoopJoinOperator::RequestColumns(std::span<const int> columns,
                                               bool rows) {
  omit_rows_ = false;
  publish_cols_.clear();
  outer_cols_.clear();
  inner_cols_.clear();
  outer_requested_ = false;  // FetchOuterBatch reads what the answer says.
  const bool strings =
      std::any_of(columns.begin(), columns.end(), [this](int c) {
        return output_schema_.column(static_cast<size_t>(c)).type ==
               DataType::kString;
      });
  if (rows || strings) return false;
  const int outer_width =
      static_cast<int>(child(0)->output_schema().num_columns());
  for (int c : columns) {
    const int src = columns_.empty() ? c : columns_[static_cast<size_t>(c)];
    std::vector<int>* cols = src < outer_width ? &outer_cols_ : &inner_cols_;
    const int col = src < outer_width ? src : src - outer_width;
    if (std::find(cols->begin(), cols->end(), col) == cols->end()) {
      cols->push_back(col);
    }
  }
  const Schema& outer_schema = child(0)->output_schema();
  outer_stage_.Clear();
  for (int col : outer_cols_) {
    outer_stage_.Mutable(col)->Reset(
        outer_schema.column(static_cast<size_t>(col)).type, kDefaultBatchSize);
  }
  publish_cols_.assign(columns.begin(), columns.end());
  published_.Clear();
  published_.set_rows(0);
  omit_rows_ = true;
  return true;
}

const uint8_t* IndexNestLoopJoinOperator::Next() {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = child(1)->output_schema();
  while (true) {
    if (need_outer_) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      // Outer rows a NextBatch call pulled but did not probe come first.
      outer_row_ = outer_pos_ < outer_n_ ? outer_rows_[outer_pos_++]
                                         : child(0)->Next();
      if (outer_row_ == nullptr) return nullptr;
      TupleView outer_view(outer_row_, &outer_schema);
      Value key = outer_key_expr_->Evaluate(outer_view);
      if (key.is_null()) continue;  // NULL keys never join.
      inner_scan_->BindEqualKey(key.int64_value());
      Status st = inner_scan_->Rescan();
      if (!st.ok()) {
        ctx_->RecordError(std::move(st));
        return nullptr;
      }
      need_outer_ = false;
    }
    const uint8_t* inner_row = child(1)->Next();
    if (inner_row == nullptr) {
      need_outer_ = true;
      continue;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    const uint8_t* combined =
        TupleBuilder::ConcatRows(output_schema_, outer_schema, outer_row_,
                                 inner_schema, inner_row, &ctx_->arena,
                                 columns_);
    ctx_->Touch(combined, TupleView(combined, &output_schema_).size_bytes());
    return combined;
  }
}

bool IndexNestLoopJoinOperator::FetchOuterBatch() {
  const Schema& outer_schema = child(0)->output_schema();
  CompiledExpr* key = vectorized_eval_ ? key_compiled_.get() : nullptr;
  if (!outer_requested_) {
    // The columns read below: the key's inputs and, without rows, the
    // requested outer columns.
    std::vector<int> cols = outer_cols_;
    if (key != nullptr) AddInputColumns(*key, &cols);
    child(0)->RequestColumns(cols, /*rows=*/true);
    outer_requested_ = true;
  }
  outer_pos_ = 0;
  outer_n_ = child(0)->NextBatch(outer_rows_.data(), outer_rows_.size());
  if (outer_n_ == 0) return false;
  // Columns the child published (a ColumnScan's segments) are aliased.
  const VectorBatch* published = child(0)->BatchColumns();
  EvaluateJoinKeys(key, *outer_key_expr_, outer_rows_.data(), outer_n_,
                   outer_schema, published, &key_vbatch_, outer_keys_.data(),
                   outer_valid_.data());
  if (omit_rows_) {
    RowBatchDecoder::DecodeMissing(outer_rows_.data(), outer_n_, outer_schema,
                                   outer_cols_, published, &outer_vbatch_);
  }
  return true;
}

void IndexNestLoopJoinOperator::StageOuter(size_t at, size_t count) {
  for (int col : outer_cols_) {
    const ColumnVector& src = outer_vbatch_.Get(col);
    ColumnVector* dst = outer_stage_.Mutable(col);
    std::fill_n(dst->nulls.data() + at, count, src.null_data()[outer_lane_]);
    if (src.is_double()) {
      std::fill_n(dst->f64.data() + at, count, src.f64_data()[outer_lane_]);
    } else {
      std::fill_n(dst->i64.data() + at, count, src.i64_data()[outer_lane_]);
    }
  }
}

void IndexNestLoopJoinOperator::PublishMatches(size_t n, size_t kept) {
  for (size_t k = 0; k < kept; ++k) {
    ctx_->ExecModule(module_id(), hot_funcs_batched());
  }
  if (kept < n) {
    // sel_ ascends, so the compaction never overwrites a match it has yet
    // to move.
    const uint32_t* idx = sel_.idx.data();
    for (size_t k = 0; k < kept; ++k) match_inner_[k] = match_inner_[idx[k]];
    for (int col : outer_cols_) {
      ColumnVector* v = outer_stage_.Mutable(col);
      for (size_t k = 0; k < kept; ++k) {
        v->nulls[k] = v->nulls[idx[k]];
        if (v->is_double()) {
          v->f64[k] = v->f64[idx[k]];
        } else {
          v->i64[k] = v->i64[idx[k]];
        }
      }
    }
  }
  // LINT: allow-row-decode(leaf rows the join matched, no batch source)
  RowBatchDecoder::Decode(match_inner_.data(), kept,
                          inner_scan_->output_schema(), inner_cols_,
                          &inner_vbatch_);
  published_.set_rows(kept);
  const int outer_width =
      static_cast<int>(child(0)->output_schema().num_columns());
  for (int c : publish_cols_) {
    const int src = columns_.empty() ? c : columns_[static_cast<size_t>(c)];
    published_.Mutable(c)->AliasLanes(
        src < outer_width ? outer_stage_.Get(src)
                          : inner_vbatch_.Get(src - outer_width));
  }
}

size_t IndexNestLoopJoinOperator::NextBatch(const uint8_t** out, size_t max) {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = inner_scan_->output_schema();
  max = std::min(max, match_inner_.size());
  for (;;) {
    // Candidate matches, until `max` of them or the end of the outer stream.
    size_t n = 0;
    while (n < max) {
      if (!need_outer_) {
        // The current key's matches; Next() may have started them.
        const size_t run = inner_scan_->NextRun(&match_inner_[n], max - n);
        if (omit_rows_) {
          StageOuter(n, run);
        } else {
          std::fill_n(&match_outer_[n], run, outer_row_);
        }
        n += run;
        if (n < max) need_outer_ = true;  // The key is drained.
        continue;
      }
      if (outer_pos_ == outer_n_ && !FetchOuterBatch()) break;
      const size_t i = outer_pos_++;
      if (outer_valid_[i] == 0) continue;  // NULL keys never join.
      outer_row_ = outer_rows_[i];
      outer_lane_ = static_cast<uint32_t>(i);
      inner_scan_->SeekEqual(outer_keys_[i]);
      need_outer_ = false;
    }
    if (n == 0) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-stream.
      return 0;
    }
    // The inner residual, once over every candidate of the batch.
    const size_t kept =
        inner_scan_->SelectResidual(match_inner_.data(), n, &sel_);
    if (kept == 0) continue;  // 0 would mean end of stream.
    if (omit_rows_) {
      PublishMatches(n, kept);
      return kept;
    }
    for (size_t k = 0; k < kept; ++k) {
      const size_t i = sel_.idx[k];
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      // LINT: allow-row-build(the consumer reads joined rows)
      const uint8_t* combined = TupleBuilder::ConcatRows(
          output_schema_, outer_schema, match_outer_[i], inner_schema,
          match_inner_[i], &ctx_->arena, columns_);
      ctx_->Touch(combined, TupleView(combined, &output_schema_).size_bytes());
      out[k] = combined;
    }
    return kept;
  }
}

void IndexNestLoopJoinOperator::Close() {
  child(0)->Close();
  child(1)->Close();
}

}  // namespace bufferdb
