#include "exec/project.h"

#include <cstring>

#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

ProjectOperator::ProjectOperator(OperatorPtr child,
                                 std::vector<ProjectItem> items)
    : items_(std::move(items)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  std::vector<Column> cols;
  for (ProjectItem& item : items_) {
    item.expr = FoldConstants(std::move(item.expr));
    cols.push_back(Column{item.output_name, item.expr->result_type()});
  }
  output_schema_ = Schema(std::move(cols));

  // When every item is a bare column reference of the input column's
  // type, output rows are slot copies; the interpreter never runs.
  const Schema& in_schema = this->child(0)->output_schema();
  for (const ProjectItem& item : items_) {
    const int col = item.expr->kind() == ExprKind::kColumnRef
                        ? static_cast<const ColumnRefExpr&>(*item.expr).column()
                        : -1;
    if (col < 0 || in_schema.column(col).type != item.expr->result_type()) {
      copy_columns_.clear();
      break;
    }
    copy_columns_.push_back(col);
  }

  // A slot copy runs no program, so only a projection that computes
  // something compiles. It vectorizes all-or-nothing: one uncompilable item
  // (e.g. a string column) keeps the whole operator on the interpreter, so
  // a batch never mixes the two materialization paths.
  if (copy_columns_.empty()) {
    for (const ProjectItem& item : items_) {
      auto p = CompiledExpr::Compile(*item.expr, in_schema);
      if (p == nullptr) {
        compiled_.clear();
        break;
      }
      compiled_.push_back(std::move(p));
    }
  }
  for (const auto& p : compiled_) AddInputColumns(*p, &decode_cols_);
  if (!compiled_.empty()) SetVectorBatchFuncs();
  results_.resize(compiled_.size());
}

Status ProjectOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  published_.set_rows(0);
  requested_ = false;
  return child(0)->Open(ctx);
}

void ProjectOperator::PublishResults(size_t n) {
  published_.set_rows(n);
  for (size_t c = 0; c < results_.size(); ++c) {
    published_.Mutable(static_cast<int>(c))->AliasLanes(*results_[c]);
  }
}

const uint8_t* ProjectOperator::Next() {
  ctx_->ExecModule(module_id(), hot_funcs_);
  const uint8_t* row = child(0)->Next();
  if (row == nullptr) return nullptr;
  const Schema& in_schema = child(0)->output_schema();
  const uint8_t* out;
  if (!copy_columns_.empty()) {
    out = TupleBuilder::CopyColumns(output_schema_, in_schema, row,
                                    &ctx_->arena, copy_columns_);
  } else {
    TupleView view(row, &in_schema);
    TupleBuilder builder(&output_schema_);
    for (size_t i = 0; i < items_.size(); ++i) {
      builder.Set(i, items_[i].expr->Evaluate(view));
    }
    out = builder.Finish(&ctx_->arena);
  }
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  return out;
}

size_t ProjectOperator::NextBatch(const uint8_t** out, size_t max) {
  // LINT: allow-alloc(one-time staging growth; no-op once capacity == max)
  if (in_batch_.size() < max) in_batch_.resize(max);
  const bool vectorized = !compiled_.empty() && vectorized_eval_;
  if (vectorized && !requested_) {
    child(0)->RequestColumns(decode_cols_, /*rows=*/true);
    requested_ = true;
  }
  size_t in_n = child(0)->NextBatch(in_batch_.data(), max);
  if (in_n == 0) {
    ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-stream.
    return 0;
  }
  const Schema& in_schema = child(0)->output_schema();
  if (!copy_columns_.empty()) {
    for (size_t i = 0; i < in_n; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      // LINT: allow-row-build(a Project's consumer reads rows)
      const uint8_t* row = TupleBuilder::CopyColumns(
          output_schema_, in_schema, in_batch_[i], &ctx_->arena, copy_columns_);
      ctx_->Touch(row, TupleView(row, &output_schema_).size_bytes());
      out[i] = row;
    }
    return in_n;
  }
  if (vectorized) {
    RowBatchDecoder::DecodeMissing(in_batch_.data(), in_n, in_schema,
                                   decode_cols_, child(0)->BatchColumns(),
                                   &vbatch_);
    for (size_t c = 0; c < compiled_.size(); ++c) {
      results_[c] = &compiled_[c]->Run(vbatch_);
    }
    // All output types are non-string (strings never compile), so every row
    // is exactly fixed_bytes: materialize the whole batch into one arena
    // block, straight from the result vectors.
    const size_t row_bytes = output_schema_.fixed_bytes();
    uint8_t* block = ctx_->arena.Allocate(in_n * row_bytes);
    const uint32_t total = static_cast<uint32_t>(row_bytes);
    for (size_t i = 0; i < in_n; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      uint8_t* row = block + i * row_bytes;
      std::memcpy(row, &total, 4);
      std::memset(row + 4, 0, 4);
      uint64_t bitmap = 0;
      uint8_t* slot = row + Schema::kHeaderBytes;
      for (size_t c = 0; c < results_.size(); ++c, slot += 8) {
        const ColumnVector& v = *results_[c];
        if (v.null_data()[i] != 0) {
          bitmap |= uint64_t{1} << c;
          std::memset(slot, 0, 8);  // Same normalization as TupleBuilder.
        } else if (v.is_double()) {
          std::memcpy(slot, &v.f64_data()[i], 8);
        } else {
          std::memcpy(slot, &v.i64_data()[i], 8);
        }
      }
      std::memcpy(row + 8, &bitmap, 8);
      ctx_->Touch(row, row_bytes);
      out[i] = row;
    }
    PublishResults(in_n);
    return in_n;
  }
  TupleBuilder builder(&output_schema_);
  for (size_t i = 0; i < in_n; ++i) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(in_batch_[i], &in_schema);
    for (size_t c = 0; c < items_.size(); ++c) {
      // LINT: allow-scalar-eval(fallback: some item did not compile)
      builder.Set(c, items_[c].expr->Evaluate(view));
    }
    // LINT: allow-row-build(a Project's consumer reads rows)
    const uint8_t* row = builder.Finish(&ctx_->arena);
    ctx_->Touch(row, TupleView(row, &output_schema_).size_bytes());
    out[i] = row;
  }
  return in_n;
}

void ProjectOperator::Close() { child(0)->Close(); }

}  // namespace bufferdb
