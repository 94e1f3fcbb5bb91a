#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/dict_view.h"
#include "expr/expression.h"
#include "expr/vector.h"

namespace bufferdb {

/// Type-specialized opcodes of the flat kernel programs CompiledExpr
/// produces. Each opcode runs as one tight column-at-a-time loop; there is
/// no per-lane dispatch, virtual call, or Value boxing (DESIGN.md §10).
enum class VecOp : uint8_t {
  kLoadConst,      // Splat an immediate (possibly NULL) into a register.
  kCastI64ToF64,   // Widen int64/date lanes to double.
  kAddI64,
  kSubI64,
  kMulI64,
  kDivI64,         // Divisor 0 -> NULL lane, like the interpreter.
  kAddF64,
  kSubF64,
  kMulF64,
  kDivF64,         // Divisor 0.0 -> NULL lane.
  kCmpEqI64,
  kCmpNeI64,
  kCmpLtI64,
  kCmpLeI64,
  kCmpGtI64,
  kCmpGeI64,
  kCmpEqF64,       // F64 comparisons replicate Value::Compare exactly,
  kCmpNeF64,       // including its NaN behavior (NaN compares "equal").
  kCmpLtF64,
  kCmpLeF64,
  kCmpGtF64,
  kCmpGeF64,
  kAnd,            // Kleene three-valued logic, branch-free on null masks.
  kOr,
  kNot,
  kNegI64,
  kNegF64,
  kIsNull,         // Never NULL themselves.
  kIsNotNull,
};

/// One instruction of a kernel program. Operand references (`a`, `b`) are
/// virtual-register indexes unless the kInputRef bit is set, in which case
/// the low bits index input_columns() and the operand reads the decoded
/// column directly — column loads cost no copy.
struct VecInsn {
  static constexpr uint16_t kInputRef = 0x8000;

  VecOp op;
  uint16_t dst = 0;      // Destination register.
  uint16_t a = 0;
  uint16_t b = 0;
  int64_t imm = 0;       // kLoadConst payload (doubles bit-cast).
  bool imm_null = false;
};

/// A test of one column's stored lanes against an immediate, `lane <op>
/// imm`. The tests MatchColumnTests derives from a conjunct together pass
/// exactly the lanes where the conjunct is non-NULL true, so each fails a
/// NULL lane. The filter form runs a test as a selection loop, ColumnScan
/// against its zone maps.
struct ColumnTest {
  int column = 0;
  BinaryOp op = BinaryOp::kEq;  // A comparison.
  bool dict_code = false;  // The lanes are the column's dictionary codes.
  bool f64 = false;        // Double lanes against imm_f64, else int64 ones
                           // against imm_i64.
  int64_t imm_i64 = 0;
  double imm_f64 = 0.0;
};

/// Writes to `tests` the column tests `conjunct` is equivalent to and
/// returns their number: 0 when it is none. A comparison of a column with a
/// non-NULL literal, in either orientation, is one test when a bool, int64
/// or date column meets a literal of its domain (compared as int64) or a
/// double column meets a numeric literal (compared as double); an integer
/// column against a double literal is none. With `dict`, a string
/// comparison or LIKE on a dictionary-coded column is a test of its codes
/// against the literal's rank (an absent literal's code is -1, which no
/// stored code equals), and `LIKE 'p%'` is two: lo <= code, code < hi over
/// the prefix's code range.
size_t MatchColumnTests(const Expression& conjunct, const DictView* dict,
                        ColumnTest tests[2]);

/// A bound Expression tree flattened (post-order) into a linear program of
/// type-specialized opcodes over virtual registers. Compiled once at plan
/// time and cached in operator state; Run() executes the program over a
/// decoded batch with one tight loop per opcode.
///
/// A predicate compiles in filter form instead (CompileFilter): one step
/// per conjunct of its top-level AND. A conjunct that is column tests
/// (MatchColumnTests) is a typed selection loop per test; any other
/// conjunct is a kernel program. RunFilter runs the steps in order, the
/// first over every lane. A later selection loop reads only the survivors
/// of the steps before it; a later program computes over every lane and
/// keeps those survivors it passes.
///
/// Coverage: all arithmetic, comparisons, AND/OR/NOT, IS [NOT] NULL,
/// negation, literals and column references over bool/int64/double/date.
/// Anything involving strings (string columns or literals, LIKE) is
/// unsupported: Compile returns nullptr and the operator keeps the
/// per-tuple interpreter — the fallback is never wrong, only slower.
///
/// Exception: when Compile is given a DictView (dictionary-encoded columnar
/// storage, DESIGN.md §12), string comparisons and LIKE against non-NULL
/// string literals are rewritten into integer comparisons on dictionary
/// codes. The dictionary is sorted with the same byte ordering
/// Value::Compare uses, so `s < 'x'` becomes `code < rank('x')`,
/// `s = 'x'` becomes `code = code_of('x')` (-1 when absent: matches
/// nothing, is NULL for NULL lanes — exactly the interpreter result), and
/// `s LIKE 'p%'` becomes `lo <= code AND code < hi` over the prefix's code
/// range, whose Kleene AND propagates NULL lanes identically to the
/// interpreter's NULL LIKE result. Inputs rewritten this way are flagged by
/// input_is_dict_code(); the caller (ColumnScan) must feed widened code
/// lanes for them instead of row-decoding — RowBatchDecoder cannot produce
/// them.
///
/// Results are bit-for-bit identical to Expression::Evaluate, including
/// null masks, div-by-zero -> NULL, Kleene AND/OR, and double comparison
/// semantics (tests/vector_eval_equivalence_test.cc proves this
/// differentially). One deliberate divergence: INT64_MIN / -1, undefined
/// behavior in the interpreter, yields INT64_MIN here instead of a trap.
class CompiledExpr {
 public:
  /// Flattens `expr` (bound to `schema`) into a kernel program, or returns
  /// nullptr when the tree contains an unsupported node.
  static std::unique_ptr<CompiledExpr> Compile(const Expression& expr,
                                               const Schema& schema);

  /// Dictionary-aware form: additionally rewrites string predicates into
  /// comparisons on dictionary codes (see class comment). Only callers that
  /// can supply code lanes for the flagged inputs may use this overload.
  static std::unique_ptr<CompiledExpr> Compile(const Expression& expr,
                                               const Schema& schema,
                                               const DictView* dict);

  /// Filter form of the BOOL `predicate`, for RunFilter only: its top-level
  /// conjuncts compile one by one. A conjunct that MatchColumnTests(dict)
  /// matches becomes one selection loop per test; every other conjunct is a
  /// kernel program. nullptr when any conjunct does not compile.
  static std::unique_ptr<CompiledExpr> CompileFilter(
      const Expression& predicate, const Schema& schema,
      const DictView* dict = nullptr);

  /// Distinct input columns the program reads; the caller decodes exactly
  /// these into the VectorBatch (deduplicated across programs by the
  /// RowBatchDecoder's caller).
  const std::vector<int>& input_columns() const { return input_cols_; }

  /// True when input_columns()[i] is consumed as dictionary codes (kInt64
  /// lanes holding the column's sorted-dictionary index) rather than as the
  /// column's decoded values.
  bool input_is_dict_code(size_t i) const {
    return i < input_is_code_.size() && input_is_code_[i] != 0;
  }

  DataType result_type() const { return result_type_; }

  /// Evaluates the program over `batch` (all input_columns() decoded,
  /// batch.rows() lanes). The returned vector is owned by this CompiledExpr
  /// and valid until the next Run/RunFilter call — except when the whole
  /// expression is a bare column reference, in which case it aliases the
  /// batch's decoded column. Not for the filter form.
  const ColumnVector& Run(const VectorBatch& batch);

  /// Filter form only: fills `sel` with the lanes for which every conjunct
  /// is non-NULL true (EvaluatePredicate semantics: under Kleene logic that
  /// is exactly when the AND is), in lane order.
  void RunFilter(const VectorBatch& batch, SelectionVector* sel);

 private:
  CompiledExpr() = default;

  struct Operand {
    uint16_t ref;
    DataType type;
  };

  /// One step of the filter form. A selection keeps the lanes of input
  /// column `input` that pass `test`; a program runs insns_[begin, end) and
  /// keeps the lanes where register `result` is non-NULL true.
  struct Conjunct {
    bool program = false;
    ColumnTest test;
    uint16_t input = 0;  // Index into input_cols_.
    uint32_t begin = 0;
    uint32_t end = 0;
    uint16_t result = 0;
  };

  bool CompileNode(const Expression& expr, Operand* out);
  bool TryCompileDictBinary(const BinaryExpr& b, bool* handled, Operand* out);
  bool CompileConjunct(const Expression& expr);
  bool Finish(const Schema& schema);
  void RunInsns(size_t begin, size_t end, const VectorBatch& batch);
  Operand EnsureF64(Operand o);
  uint16_t NewReg(DataType type);
  uint16_t AddInputColumn(int col);
  uint16_t AddDictCodeInput(int col);
  uint16_t EmitConstI64(int64_t v);
  uint16_t EmitBoolBinary(VecOp op, uint16_t a, uint16_t b);
  const ColumnVector& Vec(uint16_t ref, const VectorBatch& batch) const;

  const DictView* dict_ = nullptr;  // Compile-time only; not owned.
  std::vector<VecInsn> insns_;
  std::vector<Conjunct> conjuncts_;  // Filter form only.
  std::vector<int> input_cols_;
  std::vector<uint8_t> input_is_code_;
  std::vector<ColumnVector> regs_;
  std::vector<DataType> reg_types_;
  uint16_t result_ref_ = 0;
  DataType result_type_ = DataType::kBool;
};

/// Adds the input columns of `program` to `cols` (deduplicated): the
/// columns to decode for several programs run over one batch.
void AddInputColumns(const CompiledExpr& program, std::vector<int>* cols);

/// Boxes lane `i` of `v` into a Value — the bridge from vectorized results
/// back into row-wise consumers (aggregate accumulators, group keys). The
/// boxed Value is identical to what Expression::Evaluate would have
/// produced for that row.
Value LaneValue(const ColumnVector& v, size_t i);

}  // namespace bufferdb
