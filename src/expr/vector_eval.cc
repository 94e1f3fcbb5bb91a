#include "expr/vector_eval.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>

namespace bufferdb {

namespace {

// ---------------------------------------------------------------------------
// Kernels. Each runs one tight loop over the whole batch; null handling is
// branch-free (mask arithmetic + select), so the loops auto-vectorize. The
// select also re-establishes the invariant that NULL lanes carry a zero
// payload (see ColumnVector), which is what keeps downstream kernels safe to
// run unconditionally over every lane.
// ---------------------------------------------------------------------------

void NullUnion(const uint8_t* an, const uint8_t* bn, size_t n, uint8_t* dn) {
  for (size_t i = 0; i < n; ++i) {
    dn[i] = static_cast<uint8_t>(an[i] | bn[i]);
  }
}

void ArithI64(VecOp op, const int64_t* a, const uint8_t* an, const int64_t* b,
              const uint8_t* bn, size_t n, int64_t* d, uint8_t* dn) {
  switch (op) {
    case VecOp::kAddI64:
      NullUnion(an, bn, n, dn);
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = WrappingAdd(a[i], b[i]);
        d[i] = dn[i] != 0 ? 0 : v;
      }
      return;
    case VecOp::kSubI64:
      NullUnion(an, bn, n, dn);
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = WrappingSub(a[i], b[i]);
        d[i] = dn[i] != 0 ? 0 : v;
      }
      return;
    case VecOp::kMulI64:
      NullUnion(an, bn, n, dn);
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = WrappingMul(a[i], b[i]);
        d[i] = dn[i] != 0 ? 0 : v;
      }
      return;
    case VecOp::kDivI64:
      // Divisor 0 -> NULL, like EvalArithmetic. The safe divisor also guards
      // INT64_MIN / -1 (UB the interpreter would hit too; we return
      // INT64_MIN instead of trapping). NULL input lanes carry payload 0,
      // so they can never inject a trapping pair.
      for (size_t i = 0; i < n; ++i) {
        const int64_t bv = b[i];
        const uint8_t zero = bv == 0 ? 1 : 0;
        const bool ovf =
            a[i] == std::numeric_limits<int64_t>::min() && bv == -1;
        const int64_t safe = (zero != 0 || ovf) ? 1 : bv;
        const uint8_t nl = static_cast<uint8_t>(an[i] | bn[i] | zero);
        dn[i] = nl;
        const int64_t q = a[i] / safe;
        d[i] = nl != 0 ? 0 : q;
      }
      return;
    default:
      assert(false && "not an int64 arithmetic op");
  }
}

void ArithF64(VecOp op, const double* a, const uint8_t* an, const double* b,
              const uint8_t* bn, size_t n, double* d, uint8_t* dn) {
  switch (op) {
    case VecOp::kAddF64:
      for (size_t i = 0; i < n; ++i) {
        const uint8_t nl = static_cast<uint8_t>(an[i] | bn[i]);
        dn[i] = nl;
        const double v = a[i] + b[i];
        d[i] = nl != 0 ? 0.0 : v;
      }
      return;
    case VecOp::kSubF64:
      for (size_t i = 0; i < n; ++i) {
        const uint8_t nl = static_cast<uint8_t>(an[i] | bn[i]);
        dn[i] = nl;
        const double v = a[i] - b[i];
        d[i] = nl != 0 ? 0.0 : v;
      }
      return;
    case VecOp::kMulF64:
      for (size_t i = 0; i < n; ++i) {
        const uint8_t nl = static_cast<uint8_t>(an[i] | bn[i]);
        dn[i] = nl;
        const double v = a[i] * b[i];
        d[i] = nl != 0 ? 0.0 : v;
      }
      return;
    case VecOp::kDivF64:
      // Divisor 0.0 -> NULL, like EvalArithmetic; the safe divisor keeps the
      // FP environment clean of divide-by-zero flags.
      for (size_t i = 0; i < n; ++i) {
        const uint8_t zero = b[i] == 0.0 ? 1 : 0;
        const uint8_t nl = static_cast<uint8_t>(an[i] | bn[i] | zero);
        dn[i] = nl;
        const double safe = zero != 0 ? 1.0 : b[i];
        const double q = a[i] / safe;
        d[i] = nl != 0 ? 0.0 : q;
      }
      return;
    default:
      assert(false && "not a double arithmetic op");
  }
}

void CmpI64(VecOp op, const int64_t* a, const uint8_t* an, const int64_t* b,
            const uint8_t* bn, size_t n, int64_t* d, uint8_t* dn) {
  NullUnion(an, bn, n, dn);
  switch (op) {
    case VecOp::kCmpEqI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] == b[i]);
      }
      return;
    case VecOp::kCmpNeI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] != b[i]);
      }
      return;
    case VecOp::kCmpLtI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] < b[i]);
      }
      return;
    case VecOp::kCmpLeI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] <= b[i]);
      }
      return;
    case VecOp::kCmpGtI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] > b[i]);
      }
      return;
    case VecOp::kCmpGeI64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] >= b[i]);
      }
      return;
    default:
      assert(false && "not an int64 comparison");
  }
}

// Double comparisons are phrased in terms of `<` and `>` only, exactly like
// Value::Compare (`x < y ? -1 : x > y ? 1 : 0`). That makes NaN lanes
// compare "equal" — Eq/Le/Ge true, Ne/Lt/Gt false — matching the
// interpreter bit for bit instead of IEEE semantics.
void CmpF64(VecOp op, const double* a, const uint8_t* an, const double* b,
            const uint8_t* bn, size_t n, int64_t* d, uint8_t* dn) {
  NullUnion(an, bn, n, dn);
  switch (op) {
    case VecOp::kCmpEqF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & !(a[i] < b[i]) & !(a[i] > b[i]);
      }
      return;
    case VecOp::kCmpNeF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & ((a[i] < b[i]) | (a[i] > b[i]));
      }
      return;
    case VecOp::kCmpLtF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] < b[i]);
      }
      return;
    case VecOp::kCmpLeF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & !(a[i] > b[i]);
      }
      return;
    case VecOp::kCmpGtF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & (a[i] > b[i]);
      }
      return;
    case VecOp::kCmpGeF64:
      for (size_t i = 0; i < n; ++i) {
        d[i] = (dn[i] == 0) & !(a[i] < b[i]);
      }
      return;
    default:
      assert(false && "not a double comparison");
  }
}

// Branch-free Kleene AND/OR over 0/1 bool lanes: false dominates AND, true
// dominates OR; otherwise NULL if either side is NULL. Matches the
// interpreter's short-circuit evaluation result for every of the 9
// null/false/true input combinations.
void KleeneAnd(const int64_t* a, const uint8_t* an, const int64_t* b,
               const uint8_t* bn, size_t n, int64_t* d, uint8_t* dn) {
  for (size_t i = 0; i < n; ++i) {
    const int af = (an[i] == 0) & (a[i] == 0);
    const int bf = (bn[i] == 0) & (b[i] == 0);
    const int at = (an[i] == 0) & (a[i] != 0);
    const int bt = (bn[i] == 0) & (b[i] != 0);
    const int rfalse = af | bf;
    dn[i] = static_cast<uint8_t>((rfalse == 0) & ((an[i] | bn[i]) != 0));
    d[i] = at & bt;
  }
}

void KleeneOr(const int64_t* a, const uint8_t* an, const int64_t* b,
              const uint8_t* bn, size_t n, int64_t* d, uint8_t* dn) {
  for (size_t i = 0; i < n; ++i) {
    const int at = (an[i] == 0) & (a[i] != 0);
    const int bt = (bn[i] == 0) & (b[i] != 0);
    const int rtrue = at | bt;
    dn[i] = static_cast<uint8_t>((rtrue == 0) & ((an[i] | bn[i]) != 0));
    d[i] = rtrue;
  }
}

bool IsF64(DataType t) { return t == DataType::kDouble; }

}  // namespace

// ---------------------------------------------------------------------------
// Compiler: post-order walk emitting one instruction per interior node.
// Every node gets a fresh virtual register (programs are a handful of ops;
// distinct registers keep the kernels free of output/input aliasing).
// ---------------------------------------------------------------------------

uint16_t CompiledExpr::NewReg(DataType type) {
  reg_types_.push_back(type);
  return static_cast<uint16_t>(reg_types_.size() - 1);
}

uint16_t CompiledExpr::AddInputColumn(int col) {
  for (size_t i = 0; i < input_cols_.size(); ++i) {
    if (input_cols_[i] == col) return static_cast<uint16_t>(i);
  }
  input_cols_.push_back(col);
  return static_cast<uint16_t>(input_cols_.size() - 1);
}

uint16_t CompiledExpr::AddDictCodeInput(int col) {
  // Codes are consumed as int64 lanes (ColumnScan widens the stored int32
  // array); a string column is only ever referenced as codes, so the dedup
  // in AddInputColumn can never mix representations of one column.
  const uint16_t idx = AddInputColumn(col);
  if (input_is_code_.size() < input_cols_.size()) {
    input_is_code_.resize(input_cols_.size(), 0);
  }
  input_is_code_[idx] = 1;
  return static_cast<uint16_t>(VecInsn::kInputRef | idx);
}

uint16_t CompiledExpr::EmitConstI64(int64_t v) {
  VecInsn insn;
  insn.op = VecOp::kLoadConst;
  insn.dst = NewReg(DataType::kInt64);
  insn.imm = v;
  insns_.push_back(insn);
  return insn.dst;
}

uint16_t CompiledExpr::EmitBoolBinary(VecOp op, uint16_t a, uint16_t b) {
  VecInsn insn;
  insn.op = op;
  insn.dst = NewReg(DataType::kBool);
  insn.a = a;
  insn.b = b;
  insns_.push_back(insn);
  return insn.dst;
}

/// String comparison / LIKE against dictionary-encoded storage. On return,
/// `*handled` distinguishes "no string operands, use the regular path"
/// (false) from "string case, `*out` holds the rewritten program" (true);
/// a false return value means strings are involved but unrewritable and the
/// whole compile must fail to the interpreter.
bool CompiledExpr::TryCompileDictBinary(const BinaryExpr& b, bool* handled,
                                        Operand* out) {
  *handled = false;
  const bool is_like = b.op() == BinaryOp::kLike;
  if (!is_like && !IsComparison(b.op())) return true;
  const bool l_str = b.left().result_type() == DataType::kString;
  const bool r_str = b.right().result_type() == DataType::kString;
  if (!l_str && !r_str) return true;
  *handled = true;
  if (dict_ == nullptr) return false;

  // Normalize to `column <op> literal`. LIKE binds the pattern on the
  // right; comparisons flip when the literal is on the left.
  const Expression* col_side = &b.left();
  const Expression* lit_side = &b.right();
  BinaryOp op = b.op();
  if (!is_like && col_side->kind() != ExprKind::kColumnRef &&
      lit_side->kind() == ExprKind::kColumnRef) {
    std::swap(col_side, lit_side);
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;  // kEq / kNe are symmetric.
    }
  }
  if (col_side->kind() != ExprKind::kColumnRef ||
      lit_side->kind() != ExprKind::kLiteral) {
    return false;
  }
  const int col = static_cast<const ColumnRefExpr&>(*col_side).column();
  const Value& lit = static_cast<const LiteralExpr&>(*lit_side).value();
  // A NULL literal makes every lane NULL; rare enough to leave to the
  // interpreter rather than special-case here.
  if (lit.is_null() || lit.type() != DataType::kString) return false;
  if (!dict_->HasDict(col)) return false;
  const std::string& s = lit.string_value();

  if (is_like) {
    const bool has_wild = s.find_first_of("%_") != std::string::npos;
    if (!has_wild) {
      op = BinaryOp::kEq;  // `s LIKE 'abc'` is exact match.
    } else {
      // Rewritable pattern: literal prefix + single trailing '%'.
      if (s.back() != '%' ||
          s.find_first_of("%_") != s.size() - 1) {
        return false;
      }
      std::string_view prefix(s.data(), s.size() - 1);
      int64_t lo = 0;
      int64_t hi = 0;
      if (!dict_->PrefixRange(col, prefix, &lo, &hi)) return false;
      const uint16_t code = AddDictCodeInput(col);
      // `lo <= code AND code < hi`: NULL code lanes make both comparisons
      // NULL and the Kleene AND NULL — exactly `NULL LIKE 'p%'`.
      const uint16_t ge_lo =
          EmitBoolBinary(VecOp::kCmpGeI64, code, EmitConstI64(lo));
      const uint16_t lt_hi =
          EmitBoolBinary(VecOp::kCmpLtI64, code, EmitConstI64(hi));
      *out = Operand{EmitBoolBinary(VecOp::kAnd, ge_lo, lt_hi),
                     DataType::kBool};
      return true;
    }
  }

  const uint16_t code = AddDictCodeInput(col);
  VecOp cmp = VecOp::kCmpEqI64;
  int64_t rank = 0;
  switch (op) {
    case BinaryOp::kEq:
      // -1 when absent: matches no stored code, NULL for NULL lanes.
      cmp = VecOp::kCmpEqI64;
      rank = dict_->CodeOf(col, s);
      break;
    case BinaryOp::kNe:
      cmp = VecOp::kCmpNeI64;
      rank = dict_->CodeOf(col, s);
      break;
    // The dictionary is sorted, so order ranks translate ordered string
    // comparisons: codes [0, LowerBound) are < s, [0, UpperBound) are <= s.
    case BinaryOp::kLt:
      cmp = VecOp::kCmpLtI64;
      rank = dict_->LowerBound(col, s);
      break;
    case BinaryOp::kLe:
      cmp = VecOp::kCmpLtI64;
      rank = dict_->UpperBound(col, s);
      break;
    case BinaryOp::kGt:
      cmp = VecOp::kCmpGeI64;
      rank = dict_->UpperBound(col, s);
      break;
    case BinaryOp::kGe:
      cmp = VecOp::kCmpGeI64;
      rank = dict_->LowerBound(col, s);
      break;
    default:
      return false;
  }
  *out = Operand{EmitBoolBinary(cmp, code, EmitConstI64(rank)),
                 DataType::kBool};
  return true;
}

CompiledExpr::Operand CompiledExpr::EnsureF64(Operand o) {
  if (IsF64(o.type)) return o;
  VecInsn insn;
  insn.op = VecOp::kCastI64ToF64;
  insn.dst = NewReg(DataType::kDouble);
  insn.a = o.ref;
  insns_.push_back(insn);
  return Operand{insn.dst, DataType::kDouble};
}

bool CompiledExpr::CompileNode(const Expression& expr, Operand* out) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.result_type() == DataType::kString) return false;
      const uint16_t idx = AddInputColumn(ref.column());
      *out = Operand{static_cast<uint16_t>(VecInsn::kInputRef | idx),
                     ref.result_type()};
      return true;
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value();
      if (v.type() == DataType::kString) return false;
      VecInsn insn;
      insn.op = VecOp::kLoadConst;
      insn.dst = NewReg(v.type());
      insn.imm_null = v.is_null();
      if (!v.is_null()) {
        insn.imm = v.type() == DataType::kDouble
                       ? std::bit_cast<int64_t>(v.double_value())
                       : v.int64_value();
      }
      insns_.push_back(insn);
      *out = Operand{insn.dst, v.type()};
      return true;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      Operand a;
      if (!CompileNode(u.operand(), &a)) return false;
      VecInsn insn;
      insn.a = a.ref;
      switch (u.op()) {
        case UnaryOp::kNot:
          insn.op = VecOp::kNot;
          insn.dst = NewReg(DataType::kBool);
          break;
        case UnaryOp::kNegate:
          insn.op = IsF64(a.type) ? VecOp::kNegF64 : VecOp::kNegI64;
          insn.dst = NewReg(u.result_type());
          break;
        case UnaryOp::kIsNull:
          insn.op = VecOp::kIsNull;
          insn.dst = NewReg(DataType::kBool);
          break;
        case UnaryOp::kIsNotNull:
          insn.op = VecOp::kIsNotNull;
          insn.dst = NewReg(DataType::kBool);
          break;
      }
      insns_.push_back(insn);
      *out = Operand{insn.dst, u.result_type()};
      return true;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      {
        bool handled = false;
        if (!TryCompileDictBinary(b, &handled, out)) return false;
        if (handled) return true;
      }
      if (b.op() == BinaryOp::kLike) return false;
      Operand l, r;
      if (!CompileNode(b.left(), &l)) return false;
      if (!CompileNode(b.right(), &r)) return false;
      VecInsn insn;
      if (b.op() == BinaryOp::kAnd || b.op() == BinaryOp::kOr) {
        insn.op = b.op() == BinaryOp::kAnd ? VecOp::kAnd : VecOp::kOr;
        insn.dst = NewReg(DataType::kBool);
      } else if (IsComparison(b.op())) {
        const bool f64 = IsF64(l.type) || IsF64(r.type);
        if (f64) {
          l = EnsureF64(l);
          r = EnsureF64(r);
        }
        switch (b.op()) {
          case BinaryOp::kEq:
            insn.op = f64 ? VecOp::kCmpEqF64 : VecOp::kCmpEqI64;
            break;
          case BinaryOp::kNe:
            insn.op = f64 ? VecOp::kCmpNeF64 : VecOp::kCmpNeI64;
            break;
          case BinaryOp::kLt:
            insn.op = f64 ? VecOp::kCmpLtF64 : VecOp::kCmpLtI64;
            break;
          case BinaryOp::kLe:
            insn.op = f64 ? VecOp::kCmpLeF64 : VecOp::kCmpLeI64;
            break;
          case BinaryOp::kGt:
            insn.op = f64 ? VecOp::kCmpGtF64 : VecOp::kCmpGtI64;
            break;
          default:
            insn.op = f64 ? VecOp::kCmpGeF64 : VecOp::kCmpGeI64;
            break;
        }
        insn.dst = NewReg(DataType::kBool);
      } else {
        // Arithmetic: MakeBinary types the result double iff either operand
        // is double (the interpreter then widens both with AsDouble).
        const bool f64 = b.result_type() == DataType::kDouble;
        if (f64) {
          l = EnsureF64(l);
          r = EnsureF64(r);
        }
        switch (b.op()) {
          case BinaryOp::kAdd:
            insn.op = f64 ? VecOp::kAddF64 : VecOp::kAddI64;
            break;
          case BinaryOp::kSub:
            insn.op = f64 ? VecOp::kSubF64 : VecOp::kSubI64;
            break;
          case BinaryOp::kMul:
            insn.op = f64 ? VecOp::kMulF64 : VecOp::kMulI64;
            break;
          default:
            insn.op = f64 ? VecOp::kDivF64 : VecOp::kDivI64;
            break;
        }
        insn.dst = NewReg(b.result_type());
      }
      insn.a = l.ref;
      insn.b = r.ref;
      insns_.push_back(insn);
      *out = Operand{insn.dst, b.result_type()};
      return true;
    }
  }
  return false;
}

std::unique_ptr<CompiledExpr> CompiledExpr::Compile(const Expression& expr,
                                                    const Schema& schema) {
  return Compile(expr, schema, nullptr);
}

std::unique_ptr<CompiledExpr> CompiledExpr::Compile(const Expression& expr,
                                                    const Schema& schema,
                                                    const DictView* dict) {
  auto compiled = std::unique_ptr<CompiledExpr>(new CompiledExpr());
  compiled->dict_ = dict;
  Operand root;
  if (!compiled->CompileNode(expr, &root)) return nullptr;
  for (int col : compiled->input_cols_) {
    if (col < 0 || static_cast<size_t>(col) >= schema.num_columns()) {
      return nullptr;  // Unbound column reference.
    }
  }
  compiled->result_ref_ = root.ref;
  compiled->result_type_ = expr.result_type();
  assert(root.type == expr.result_type());
  compiled->regs_.resize(compiled->reg_types_.size());
  compiled->dict_ = nullptr;  // Compile-time only; the program is standalone.
  return compiled;
}

// ---------------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------------

const ColumnVector& CompiledExpr::Vec(uint16_t ref,
                                      const VectorBatch& batch) const {
  if ((ref & VecInsn::kInputRef) != 0) {
    return batch.Get(input_cols_[ref & ~VecInsn::kInputRef]);
  }
  return regs_[ref];
}

const ColumnVector& CompiledExpr::Run(const VectorBatch& batch) {
  const size_t n = batch.rows();
  for (const VecInsn& insn : insns_) {
    ColumnVector& dst = regs_[insn.dst];
    dst.Reset(reg_types_[insn.dst], n);
    uint8_t* dn = dst.nulls.data();
    switch (insn.op) {
      case VecOp::kLoadConst: {
        const uint8_t nl = insn.imm_null ? 1 : 0;
        if (dst.is_double()) {
          const double v =
              insn.imm_null ? 0.0 : std::bit_cast<double>(insn.imm);
          for (size_t i = 0; i < n; ++i) dst.f64[i] = v;
        } else {
          const int64_t v = insn.imm_null ? 0 : insn.imm;
          for (size_t i = 0; i < n; ++i) dst.i64[i] = v;
        }
        for (size_t i = 0; i < n; ++i) dn[i] = nl;
        break;
      }
      case VecOp::kCastI64ToF64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const int64_t* av = a.i64_data();
        const uint8_t* an = a.null_data();
        for (size_t i = 0; i < n; ++i) {
          dst.f64[i] = static_cast<double>(av[i]);
          dn[i] = an[i];
        }
        break;
      }
      case VecOp::kAddI64:
      case VecOp::kSubI64:
      case VecOp::kMulI64:
      case VecOp::kDivI64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        ArithI64(insn.op, a.i64_data(), a.null_data(), b.i64_data(),
                 b.null_data(), n, dst.i64.data(), dn);
        break;
      }
      case VecOp::kAddF64:
      case VecOp::kSubF64:
      case VecOp::kMulF64:
      case VecOp::kDivF64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        ArithF64(insn.op, a.f64_data(), a.null_data(), b.f64_data(),
                 b.null_data(), n, dst.f64.data(), dn);
        break;
      }
      case VecOp::kCmpEqI64:
      case VecOp::kCmpNeI64:
      case VecOp::kCmpLtI64:
      case VecOp::kCmpLeI64:
      case VecOp::kCmpGtI64:
      case VecOp::kCmpGeI64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        CmpI64(insn.op, a.i64_data(), a.null_data(), b.i64_data(),
               b.null_data(), n, dst.i64.data(), dn);
        break;
      }
      case VecOp::kCmpEqF64:
      case VecOp::kCmpNeF64:
      case VecOp::kCmpLtF64:
      case VecOp::kCmpLeF64:
      case VecOp::kCmpGtF64:
      case VecOp::kCmpGeF64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        CmpF64(insn.op, a.f64_data(), a.null_data(), b.f64_data(),
               b.null_data(), n, dst.i64.data(), dn);
        break;
      }
      case VecOp::kAnd: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        KleeneAnd(a.i64_data(), a.null_data(), b.i64_data(), b.null_data(),
                  n, dst.i64.data(), dn);
        break;
      }
      case VecOp::kOr: {
        const ColumnVector& a = Vec(insn.a, batch);
        const ColumnVector& b = Vec(insn.b, batch);
        KleeneOr(a.i64_data(), a.null_data(), b.i64_data(), b.null_data(),
                 n, dst.i64.data(), dn);
        break;
      }
      case VecOp::kNot: {
        const ColumnVector& a = Vec(insn.a, batch);
        const int64_t* av = a.i64_data();
        const uint8_t* an = a.null_data();
        int64_t* d = dst.i64.data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = (an[i] == 0) & (av[i] == 0);
          dn[i] = an[i];
        }
        break;
      }
      case VecOp::kNegI64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const int64_t* av = a.i64_data();
        const uint8_t* an = a.null_data();
        int64_t* d = dst.i64.data();
        // NULL lanes carry payload 0, and -0 == 0, so no select is needed.
        for (size_t i = 0; i < n; ++i) {
          d[i] = WrappingNeg(av[i]);
          dn[i] = an[i];
        }
        break;
      }
      case VecOp::kNegF64: {
        const ColumnVector& a = Vec(insn.a, batch);
        const double* av = a.f64_data();
        const uint8_t* an = a.null_data();
        double* d = dst.f64.data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = -av[i];
          dn[i] = an[i];
        }
        break;
      }
      case VecOp::kIsNull: {
        const ColumnVector& a = Vec(insn.a, batch);
        const uint8_t* an = a.null_data();
        int64_t* d = dst.i64.data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = an[i] != 0;
          dn[i] = 0;
        }
        break;
      }
      case VecOp::kIsNotNull: {
        const ColumnVector& a = Vec(insn.a, batch);
        const uint8_t* an = a.null_data();
        int64_t* d = dst.i64.data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = an[i] == 0;
          dn[i] = 0;
        }
        break;
      }
    }
  }
  return Vec(result_ref_, batch);
}

void CompiledExpr::RunFilter(const VectorBatch& batch, SelectionVector* sel) {
  assert(result_type_ == DataType::kBool);
  const ColumnVector& r = Run(batch);
  const size_t n = batch.rows();
  if (sel->idx.size() < n) sel->idx.resize(n);
  const int64_t* v = r.i64_data();
  const uint8_t* nu = r.null_data();
  size_t cnt = 0;
  for (size_t i = 0; i < n; ++i) {
    // Branch-free compaction: the write always happens, the cursor advances
    // by the (non-NULL true) predicate result.
    sel->idx[cnt] = static_cast<uint32_t>(i);
    cnt += static_cast<size_t>((nu[i] == 0) & (v[i] != 0));
  }
  sel->count = cnt;
}

Value LaneValue(const ColumnVector& v, size_t i) {
  if (v.null_data()[i] != 0) return Value::Null(v.type);
  switch (v.type) {
    case DataType::kBool:
      return Value::Bool(v.i64_data()[i] != 0);
    case DataType::kInt64:
      return Value::Int64(v.i64_data()[i]);
    case DataType::kDouble:
      return Value::Double(v.f64_data()[i]);
    case DataType::kDate:
      return Value::Date(v.i64_data()[i]);
    case DataType::kString:
      break;  // Strings are never vectorized.
  }
  return Value::Null(v.type);
}

}  // namespace bufferdb
