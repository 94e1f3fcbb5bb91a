#include "exec/column_scan.h"

#include <algorithm>
#include <cassert>

#include "expr/evaluator.h"

namespace bufferdb {

namespace {

ZoneOp ToZoneOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return ZoneOp::kEq;
    case BinaryOp::kNe: return ZoneOp::kNe;
    case BinaryOp::kLt: return ZoneOp::kLt;
    case BinaryOp::kLe: return ZoneOp::kLe;
    case BinaryOp::kGt: return ZoneOp::kGt;
    default: return ZoneOp::kGe;
  }
}

/// Builds the zone conjunct for one `col <op> literal` comparison, already
/// normalized so the column is on the left. String literals are translated
/// into dictionary-code space (the dictionary is sorted, so code order is
/// string order). Returns false when the conjunct is unusable for pruning
/// (mixed domains, NULL literal, ...) — never an error, just no pruning.
bool MakeConjunct(const ColumnRefExpr& ref, BinaryOp op, const Value& lit,
                  const DictView& dict, ZoneConjunct* out) {
  if (lit.is_null()) return false;
  const DataType ct = ref.result_type();
  out->col = ref.column();
  out->op = ToZoneOp(op);
  switch (ct) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kDate:
      // Exact-domain only: an int literal against a double column (or vice
      // versa) would need float-precision reasoning; skip those.
      if (lit.type() != ct) return false;
      out->is_f64 = false;
      out->i64 = lit.int64_value();
      return true;
    case DataType::kDouble:
      if (lit.type() != DataType::kDouble) return false;
      out->is_f64 = true;
      out->f64 = lit.double_value();
      return true;
    case DataType::kString: {
      if (lit.type() != DataType::kString || !dict.HasDict(out->col)) {
        return false;
      }
      out->is_f64 = false;
      const std::string& s = lit.string_value();
      switch (op) {
        case BinaryOp::kEq: {
          const int64_t code = dict.CodeOf(out->col, s);
          if (code < 0) {
            out->always_false = true;  // Literal absent: nothing matches.
          } else {
            out->i64 = code;
          }
          return true;
        }
        case BinaryOp::kNe: {
          const int64_t code = dict.CodeOf(out->col, s);
          if (code < 0) return false;  // Every non-NULL row passes.
          out->i64 = code;
          return true;
        }
        // Ordered comparisons become code-rank bounds: codes [0, lower)
        // are < s, codes [0, upper) are <= s.
        case BinaryOp::kLt:
          out->op = ZoneOp::kLt;
          out->i64 = dict.LowerBound(out->col, s);
          return true;
        case BinaryOp::kLe:
          out->op = ZoneOp::kLt;
          out->i64 = dict.UpperBound(out->col, s);
          return true;
        case BinaryOp::kGt:
          out->op = ZoneOp::kGe;
          out->i64 = dict.UpperBound(out->col, s);
          return true;
        case BinaryOp::kGe:
          out->op = ZoneOp::kGe;
          out->i64 = dict.LowerBound(out->col, s);
          return true;
        default:
          return false;
      }
    }
  }
  return false;
}

/// Collects pruning conjuncts from the top-level AND chain of `e`. Only
/// `col <op> literal` comparisons (and literal/prefix LIKE on dictionary
/// columns) contribute; anything else is simply not used for pruning. Every
/// emitted conjunct C satisfies: row passes the predicate => C is true for
/// that row — so a block where C can never be true is safely skippable.
void ExtractZoneConjuncts(const Expression& e, const DictView& dict,
                          std::vector<ZoneConjunct>* out) {
  if (e.kind() != ExprKind::kBinary) return;
  const auto& b = static_cast<const BinaryExpr&>(e);
  if (b.op() == BinaryOp::kAnd) {
    ExtractZoneConjuncts(b.left(), dict, out);
    ExtractZoneConjuncts(b.right(), dict, out);
    return;
  }
  if (b.op() == BinaryOp::kLike) {
    if (b.left().kind() != ExprKind::kColumnRef ||
        b.right().kind() != ExprKind::kLiteral) {
      return;
    }
    const auto& ref = static_cast<const ColumnRefExpr&>(b.left());
    const Value& lit = static_cast<const LiteralExpr&>(b.right()).value();
    if (lit.is_null() || lit.type() != DataType::kString ||
        !dict.HasDict(ref.column())) {
      return;
    }
    const std::string& s = lit.string_value();
    const size_t wild = s.find_first_of("%_");
    if (wild == std::string::npos) {
      ZoneConjunct c;  // `LIKE 'abc'` is exact match.
      if (MakeConjunct(ref, BinaryOp::kEq, lit, dict, &c)) out->push_back(c);
      return;
    }
    if (s.back() != '%' || wild != s.size() - 1) return;
    int64_t lo = 0;
    int64_t hi = 0;
    if (!dict.PrefixRange(ref.column(), {s.data(), s.size() - 1}, &lo, &hi)) {
      return;
    }
    ZoneConjunct ge;
    ge.col = ref.column();
    ge.op = ZoneOp::kGe;
    ge.i64 = lo;
    ZoneConjunct lt;
    lt.col = ref.column();
    lt.op = ZoneOp::kLt;
    lt.i64 = hi;
    out->push_back(ge);
    out->push_back(lt);
    return;
  }
  const ColumnRefExpr* column = nullptr;
  const Value* literal = nullptr;
  BinaryOp op = BinaryOp::kEq;
  ZoneConjunct c;
  if (MatchColumnComparison(b, &column, &literal, &op) &&
      MakeConjunct(*column, op, *literal, dict, &c)) {
    out->push_back(c);
  }
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
    ExtractZoneConjuncts(*predicate_, *columnar_, &conjuncts_);
  }
}

Status ColumnScanOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  limit_ = morsels_ != nullptr ? 0 : table_->num_rows();
  blocks_pruned_ = 0;
  stage_pos_ = 0;
  stage_n_ = 0;
  published_.set_rows(0);
  return Status::OK();
}

bool ColumnScanOperator::BlockPruned(size_t block) const {
  for (const ZoneConjunct& c : conjuncts_) {
    const ColumnSegment& seg =
        columnar_->segment(static_cast<size_t>(c.col));
    if (block >= seg.zones.size()) continue;
    if (!BlockMayMatch(seg.zones[block], seg, c)) return true;
  }
  return false;
}

bool ColumnScanOperator::ClaimRun(size_t max, size_t* run) {
  for (;;) {
    if (pos_ >= limit_) {
      parallel::Morsel morsel;
      if (morsels_ == nullptr || !morsels_->TryNext(&morsel)) return false;
      pos_ = morsel.begin;
      limit_ = morsel.end;
      continue;
    }
    const size_t block = pos_ / kZoneBlockRows;
    const size_t block_end = std::min(limit_, (block + 1) * kZoneBlockRows);
    if (BlockPruned(block)) {
      ++blocks_pruned_;
      pos_ = block_end;
      continue;
    }
    // Extend the run across consecutive unpruned blocks up to `max` rows;
    // a run never spans a pruned block (the skip happens on the next call)
    // and never a morsel boundary (limit_).
    size_t run_end = block_end;
    while (run_end < limit_ && run_end - pos_ < max) {
      const size_t next_block = run_end / kZoneBlockRows;
      if (BlockPruned(next_block)) break;
      run_end = std::min(limit_, (next_block + 1) * kZoneBlockRows);
    }
    *run = std::min(max, run_end - pos_);
    return true;
  }
}

void ColumnScanOperator::FillPredicateInputs(size_t n) {
  vbatch_.set_rows(n);
  const std::vector<int>& cols = compiled_->input_columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const auto col = static_cast<size_t>(cols[i]);
    const ColumnSegment& seg = columnar_->segment(col);
    ColumnVector* vec = vbatch_.Mutable(cols[i]);
    if (compiled_->input_is_dict_code(i)) {
      // Codes are stored int32; widen into an owned int64 vector (the one
      // materialization the dictionary path pays). NULL rows carry code 0,
      // preserving the zero-payload-under-NULL invariant.
      vec->Reset(DataType::kInt64, n);
      int64_t* out = vec->i64.data();
      uint8_t* nulls = vec->nulls.data();
      const int32_t* codes = seg.codes.data() + pos_;
      const uint8_t* seg_nulls = seg.nulls.data() + pos_;
      for (size_t k = 0; k < n; ++k) {
        out[k] = codes[k];
        nulls[k] = seg_nulls[k];
      }
      ctx_->Touch(codes, n * sizeof(int32_t));
      ctx_->Touch(seg_nulls, n);
    } else if (seg.type == DataType::kDouble) {
      vec->AliasF64(seg.f64.data() + pos_, seg.nulls.data() + pos_);
      ctx_->Touch(seg.f64.data() + pos_, n * sizeof(double));
      ctx_->Touch(seg.nulls.data() + pos_, n);
    } else {
      vec->AliasI64(seg.type, seg.i64.data() + pos_, seg.nulls.data() + pos_);
      ctx_->Touch(seg.i64.data() + pos_, n * sizeof(int64_t));
      ctx_->Touch(seg.nulls.data() + pos_, n);
    }
  }
}

void ColumnScanOperator::set_published_columns(std::vector<int> columns) {
  published_cols_ = std::move(columns);
  published_.Clear();
}

void ColumnScanOperator::PublishAliases(size_t n) {
  published_.set_rows(n);
  for (int c : published_cols_) {
    const ColumnSegment& seg = columnar_->segment(static_cast<size_t>(c));
    ColumnVector* vec = published_.Mutable(c);
    if (seg.type == DataType::kDouble) {
      vec->AliasF64(seg.f64.data() + pos_, seg.nulls.data() + pos_);
      ctx_->Touch(seg.f64.data() + pos_, n * sizeof(double));
    } else {
      vec->AliasI64(seg.type, seg.i64.data() + pos_, seg.nulls.data() + pos_);
      ctx_->Touch(seg.i64.data() + pos_, n * sizeof(int64_t));
    }
    ctx_->Touch(seg.nulls.data() + pos_, n);
  }
}

void ColumnScanOperator::PublishGathered(size_t n) {
  const size_t count = sel_.count;
  const uint32_t* idx = sel_.idx.data();
  published_.set_rows(count);
  for (int c : published_cols_) {
    const ColumnSegment& seg = columnar_->segment(static_cast<size_t>(c));
    ColumnVector* dst = published_.Mutable(c);
    dst->Reset(seg.type, count);
    uint8_t* dst_nulls = dst->nulls.data();
    const uint8_t* src_nulls = seg.nulls.data() + pos_;
    if (seg.type == DataType::kDouble) {
      const double* src = seg.f64.data() + pos_;
      double* d = dst->f64.data();
      for (size_t k = 0; k < count; ++k) {
        d[k] = src[idx[k]];
        dst_nulls[k] = src_nulls[idx[k]];
      }
      ctx_->Touch(src, n * sizeof(double));
    } else {
      const int64_t* src = seg.i64.data() + pos_;
      int64_t* d = dst->i64.data();
      for (size_t k = 0; k < count; ++k) {
        d[k] = src[idx[k]];
        dst_nulls[k] = src_nulls[idx[k]];
      }
      ctx_->Touch(src, n * sizeof(int64_t));
    }
    ctx_->Touch(src_nulls, n);
  }
}

size_t ColumnScanOperator::NextBatch(const uint8_t** out, size_t max) {
  // Nothing is published unless this call aliases or gathers its own run.
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
  const std::vector<const uint8_t*>& rows = table_->rows();
  if (compiled_ != nullptr && vectorized_eval_) {
    for (;;) {
      size_t run = 0;
      if (!ClaimRun(max, &run)) break;
      // One module execution per row considered; pruned blocks never get
      // here, which is the zone maps' instruction-count win.
      for (size_t i = 0; i < run; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_batched());
      }
      FillPredicateInputs(run);
      compiled_->RunFilter(vbatch_, &sel_);
      if (sel_.count == 0) {
        pos_ += run;
        continue;  // Keep scanning: 0 means end-of-stream to callers.
      }
      for (size_t k = 0; k < sel_.count; ++k) {
        out[k] = rows[pos_ + sel_.idx[k]];
      }
      if (sel_.count == run) {
        PublishAliases(run);
      } else {
        PublishGathered(run);
      }
      pos_ += run;
      return sel_.count;
    }
    ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-scan.
    return 0;
  }
  if (predicate_ == nullptr) {
    size_t run = 0;
    if (!ClaimRun(max, &run)) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      return 0;
    }
    for (size_t i = 0; i < run; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      out[i] = rows[pos_ + i];
    }
    PublishAliases(run);
    pos_ += run;
    return run;
  }
  // Scalar fallback (predicate did not compile): interpreter per row, but
  // zone pruning still applies through ClaimRun.
  const Schema& schema = table_->schema();
  size_t n = 0;
  while (n < max) {
    size_t run = 0;
    if (!ClaimRun(max - n, &run)) break;
    for (size_t i = 0; i < run; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      const uint8_t* row = rows[pos_ + i];
      TupleView view(row, &schema);
      ctx_->Touch(row, view.size_bytes());
      // LINT: allow-scalar-eval(fallback: predicate did not compile)
      const bool keep = EvaluatePredicate(*predicate_, view);
      out[n] = row;
      n += keep ? 1 : 0;
    }
    pos_ += run;
    if (n > 0) return n;  // Contiguity only matters for published columns.
  }
  if (n == 0) ctx_->ExecModule(module_id(), hot_funcs_);
  return n;
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
  pos_ = 0;
  limit_ = 0;
  stage_pos_ = 0;
  stage_n_ = 0;
  published_.set_rows(0);
}

Status ColumnScanOperator::Rescan() {
  pos_ = 0;
  limit_ = morsels_ != nullptr ? 0 : table_->num_rows();
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
  if (morsels_ != nullptr) out += ", morsel";
  out += ")";
  return out;
}

}  // namespace bufferdb
