#include "expr/vector_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>

#include "expr/evaluator.h"

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

// Compacts the lanes that pass into `idx`, in lane order: every lane of
// [0, n) when `first`, else the `count` survivors `idx` already holds. They
// are ascending, so the in-place store never overtakes its read. The store
// always happens and the cursor advances by the test, so nothing branches
// on the data.
template <typename Pass>
size_t SelectLanes(bool first, size_t n, size_t count, uint32_t* idx,
                   Pass pass) {
  size_t out = 0;
  if (first) {
    for (size_t i = 0; i < n; ++i) {
      idx[out] = static_cast<uint32_t>(i);
      out += static_cast<size_t>(pass(i));
    }
    return out;
  }
  for (size_t k = 0; k < count; ++k) {
    const uint32_t i = idx[k];
    idx[out] = i;
    out += static_cast<size_t>(pass(i));
  }
  return out;
}

// The lanes where `v[i] <op> imm` is non-NULL true. Phrased through `<` and
// `>` only, like CmpF64 and Value::Compare, so NaN compares equal; for
// integers it is plain order.
template <typename T>
size_t SelectCompare(BinaryOp op, const T* v, const uint8_t* nu, T imm,
                     bool first, size_t n, size_t count, uint32_t* idx) {
  auto lt = [&](size_t i) { return v[i] < imm; };
  auto gt = [&](size_t i) { return v[i] > imm; };
  switch (op) {
    case BinaryOp::kEq:
      return SelectLanes(first, n, count, idx, [&](size_t i) {
        return (nu[i] == 0) & !lt(i) & !gt(i);
      });
    case BinaryOp::kNe:
      return SelectLanes(first, n, count, idx, [&](size_t i) {
        return (nu[i] == 0) & (lt(i) | gt(i));
      });
    case BinaryOp::kLt:
      return SelectLanes(first, n, count, idx,
                         [&](size_t i) { return (nu[i] == 0) & lt(i); });
    case BinaryOp::kLe:
      return SelectLanes(first, n, count, idx,
                         [&](size_t i) { return (nu[i] == 0) & !gt(i); });
    case BinaryOp::kGt:
      return SelectLanes(first, n, count, idx,
                         [&](size_t i) { return (nu[i] == 0) & gt(i); });
    default:
      assert(op == BinaryOp::kGe);
      return SelectLanes(first, n, count, idx,
                         [&](size_t i) { return (nu[i] == 0) & !lt(i); });
  }
}

// True when `b` compares or LIKE-matches strings: the dictionary rewrite's
// business, never a kernel's.
bool IsStringTest(const BinaryExpr& b) {
  if (b.op() != BinaryOp::kLike && !IsComparison(b.op())) return false;
  return b.left().result_type() == DataType::kString ||
         b.right().result_type() == DataType::kString;
}

bool IsF64(DataType t) { return t == DataType::kDouble; }

// The kernel opcode of comparison `op` over double or int64 lanes.
VecOp CmpOp(BinaryOp op, bool f64) {
  switch (op) {
    case BinaryOp::kEq: return f64 ? VecOp::kCmpEqF64 : VecOp::kCmpEqI64;
    case BinaryOp::kNe: return f64 ? VecOp::kCmpNeF64 : VecOp::kCmpNeI64;
    case BinaryOp::kLt: return f64 ? VecOp::kCmpLtF64 : VecOp::kCmpLtI64;
    case BinaryOp::kLe: return f64 ? VecOp::kCmpLeF64 : VecOp::kCmpLeI64;
    case BinaryOp::kGt: return f64 ? VecOp::kCmpGtF64 : VecOp::kCmpGtI64;
    default: return f64 ? VecOp::kCmpGeF64 : VecOp::kCmpGeI64;
  }
}

}  // namespace

size_t MatchColumnTests(const Expression& conjunct, const DictView* dict,
                        ColumnTest tests[2]) {
  if (conjunct.kind() != ExprKind::kBinary) return 0;
  const auto& b = static_cast<const BinaryExpr&>(conjunct);
  const ColumnRefExpr* column = nullptr;
  const Value* literal = nullptr;
  BinaryOp op = b.op();
  if (op == BinaryOp::kLike) {
    // LIKE binds the pattern on the right.
    if (b.left().kind() != ExprKind::kColumnRef ||
        b.right().kind() != ExprKind::kLiteral) {
      return 0;
    }
    column = &static_cast<const ColumnRefExpr&>(b.left());
    literal = &static_cast<const LiteralExpr&>(b.right()).value();
  } else if (!MatchColumnComparison(b, &column, &literal, &op)) {
    return 0;
  }
  // A NULL literal is rare enough to leave to a program or the interpreter.
  if (literal->is_null()) return 0;
  ColumnTest t;
  t.column = column->column();
  t.op = op;
  if (!IsStringTest(b)) {
    // As in CompileNode, a double on either side makes the comparison a
    // double one; an integer column against a double literal is left to a
    // program, which widens the column. (LIKE binds only strings.)
    t.f64 = IsF64(column->result_type());
    if (!t.f64 && IsF64(literal->type())) return 0;
    if (t.f64) {
      t.imm_f64 = literal->AsDouble();
    } else {
      t.imm_i64 = literal->int64_value();
    }
    tests[0] = t;
    return 1;
  }
  if (dict == nullptr || literal->type() != DataType::kString ||
      !dict->HasDict(t.column)) {
    return 0;
  }
  // The dictionary is sorted with Value::Compare's byte order, so ranks
  // translate ordered comparisons: codes [0, LowerBound) are < s,
  // [0, UpperBound) are <= s.
  t.dict_code = true;
  const std::string& s = literal->string_value();
  if (op == BinaryOp::kLike) {
    const size_t wild = s.find_first_of("%_");
    if (wild != std::string::npos) {
      if (s.back() != '%' || wild != s.size() - 1) return 0;
      int64_t lo = 0;
      int64_t hi = 0;
      if (!dict->PrefixRange(t.column, {s.data(), s.size() - 1}, &lo, &hi)) {
        return 0;
      }
      tests[0] = tests[1] = t;
      tests[0].op = BinaryOp::kGe;
      tests[0].imm_i64 = lo;
      tests[1].op = BinaryOp::kLt;
      tests[1].imm_i64 = hi;
      return 2;
    }
    t.op = BinaryOp::kEq;  // `s LIKE 'abc'` is exact match.
  }
  switch (t.op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      t.imm_i64 = dict->CodeOf(t.column, s);
      break;
    case BinaryOp::kLt:
      t.imm_i64 = dict->LowerBound(t.column, s);
      break;
    case BinaryOp::kLe:
      t.op = BinaryOp::kLt;
      t.imm_i64 = dict->UpperBound(t.column, s);
      break;
    case BinaryOp::kGt:
      t.op = BinaryOp::kGe;
      t.imm_i64 = dict->UpperBound(t.column, s);
      break;
    default:
      t.imm_i64 = dict->LowerBound(t.column, s);
      break;
  }
  tests[0] = t;
  return 1;
}

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
  return idx;
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
  *handled = IsStringTest(b);
  if (!*handled) return true;
  ColumnTest tests[2];
  const size_t num = MatchColumnTests(b, dict_, tests);
  if (num == 0) return false;
  const auto code = static_cast<uint16_t>(
      VecInsn::kInputRef | AddDictCodeInput(tests[0].column));
  uint16_t result = 0;
  for (size_t t = 0; t < num; ++t) {
    const uint16_t r = EmitBoolBinary(CmpOp(tests[t].op, false), code,
                                      EmitConstI64(tests[t].imm_i64));
    // Two tests AND: a NULL code lane makes both comparisons NULL and the
    // Kleene AND NULL, exactly `NULL LIKE 'p%'`.
    result = t == 0 ? r : EmitBoolBinary(VecOp::kAnd, result, r);
  }
  *out = Operand{result, DataType::kBool};
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
        insn.op = CmpOp(b.op(), f64);
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
  assert(root.type == expr.result_type());
  compiled->result_ref_ = root.ref;
  compiled->result_type_ = expr.result_type();
  if (!compiled->Finish(schema)) return nullptr;
  return compiled;
}

std::unique_ptr<CompiledExpr> CompiledExpr::CompileFilter(
    const Expression& predicate, const Schema& schema, const DictView* dict) {
  if (predicate.result_type() != DataType::kBool) return nullptr;
  auto compiled = std::unique_ptr<CompiledExpr>(new CompiledExpr());
  compiled->dict_ = dict;
  std::vector<const Expression*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  for (const Expression* conjunct : conjuncts) {
    if (!compiled->CompileConjunct(*conjunct)) return nullptr;
  }
  if (!compiled->Finish(schema)) return nullptr;
  return compiled;
}

bool CompiledExpr::CompileConjunct(const Expression& expr) {
  ColumnTest tests[2];
  const size_t num = MatchColumnTests(expr, dict_, tests);
  for (size_t t = 0; t < num; ++t) {
    Conjunct c;
    c.test = tests[t];
    c.input = c.test.dict_code ? AddDictCodeInput(c.test.column)
                               : AddInputColumn(c.test.column);
    conjuncts_.push_back(c);
  }
  if (num > 0) return true;
  Conjunct c;
  c.program = true;
  c.begin = static_cast<uint32_t>(insns_.size());
  Operand root;
  if (!CompileNode(expr, &root)) return false;
  c.end = static_cast<uint32_t>(insns_.size());
  c.result = root.ref;
  conjuncts_.push_back(c);
  return true;
}

bool CompiledExpr::Finish(const Schema& schema) {
  for (int col : input_cols_) {
    if (col < 0 || static_cast<size_t>(col) >= schema.num_columns()) {
      return false;  // Unbound column reference.
    }
  }
  regs_.resize(reg_types_.size());
  dict_ = nullptr;  // Compile-time only; the program is standalone.
  return true;
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
  assert(conjuncts_.empty());
  RunInsns(0, insns_.size(), batch);
  return Vec(result_ref_, batch);
}

void CompiledExpr::RunInsns(size_t begin, size_t end,
                            const VectorBatch& batch) {
  const size_t n = batch.rows();
  for (size_t pc = begin; pc < end; ++pc) {
    const VecInsn& insn = insns_[pc];
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
}

void CompiledExpr::RunFilter(const VectorBatch& batch, SelectionVector* sel) {
  assert(!conjuncts_.empty());
  const size_t n = batch.rows();
  if (sel->idx.size() < n) sel->idx.resize(n);
  uint32_t* idx = sel->idx.data();
  size_t count = n;
  bool first = true;
  for (const Conjunct& c : conjuncts_) {
    if (c.program) {
      RunInsns(c.begin, c.end, batch);
      const ColumnVector& r = Vec(c.result, batch);
      const int64_t* v = r.i64_data();
      const uint8_t* nu = r.null_data();
      count = SelectLanes(first, n, count, idx, [&](size_t i) {
        return (nu[i] == 0) & (v[i] != 0);
      });
    } else {
      const ColumnTest& t = c.test;
      const ColumnVector& col = batch.Get(input_cols_[c.input]);
      const uint8_t* nu = col.null_data();
      if (t.f64) {
        count = SelectCompare(t.op, col.f64_data(), nu, t.imm_f64, first, n,
                              count, idx);
      } else {
        count = SelectCompare(t.op, col.i64_data(), nu, t.imm_i64, first, n,
                              count, idx);
      }
    }
    first = false;
    if (count == 0) break;
  }
  sel->count = count;
}

void AddInputColumns(const CompiledExpr& program, std::vector<int>* cols) {
  for (int col : program.input_columns()) {
    if (std::find(cols->begin(), cols->end(), col) == cols->end()) {
      cols->push_back(col);
    }
  }
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
