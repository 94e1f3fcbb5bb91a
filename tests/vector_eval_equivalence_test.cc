// Differential fuzzing of the vectorized expression engine against the
// tuple-at-a-time interpreter (DESIGN.md section 10.4).
//
// Randomized expression trees over NULL-heavy, zero-heavy data are compiled
// with CompiledExpr::Compile and executed column-at-a-time; every lane must
// be bit-identical to Expression::Evaluate on the same row, including the
// null flag, the exact double bit pattern, division-by-zero -> NULL, and
// the Kleene AND/OR truth tables. Boolean trees additionally check
// RunFilter against EvaluatePredicate, and constant-folded trees against
// their unfolded originals. Exercised at batch widths 1/7/256/1024.
//
// Integer leaf magnitudes are capped (|x| <= 3, literals |x| <= 3, depth
// <= 4) so no tree can overflow int64 arithmetic: the deepest product chain
// is bounded by 3^(2^4) ~= 43e6. That keeps the asan-ubsan CI job's signed
// overflow checker quiet without narrowing the semantics under test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"
#include "storage/tuple.h"

namespace bufferdb {
namespace {

constexpr size_t kNumRows = 1024;
constexpr int kMaxDepth = 4;

class VectorEvalFuzzTest : public ::testing::Test {
 protected:
  VectorEvalFuzzTest()
      : schema_({{"i0", DataType::kInt64},
                 {"i1", DataType::kInt64},
                 {"d0", DataType::kDouble},
                 {"d1", DataType::kDouble},
                 {"b0", DataType::kBool},
                 {"t0", DataType::kDate},
                 {"s0", DataType::kString}}) {}

  // NULL-heavy (~30%), zero-heavy data: zeros make division-by-zero and
  // Kleene short-circuits common instead of vanishingly rare.
  void BuildRows(uint64_t seed) {
    Rng rng(seed);
    rows_.clear();
    rows_.reserve(kNumRows);
    for (size_t r = 0; r < kNumRows; ++r) {
      TupleBuilder b(&schema_);
      if (rng.Next() % 10 < 3) b.SetNull(0); else b.SetInt64(0, rng.Uniform(-3, 3));
      if (rng.Next() % 10 < 3) b.SetNull(1); else b.SetInt64(1, rng.Uniform(-3, 3));
      if (rng.Next() % 10 < 3) b.SetNull(2); else b.SetDouble(2, static_cast<double>(rng.Uniform(-6, 6)) * 0.5);
      if (rng.Next() % 10 < 3) b.SetNull(3); else b.SetDouble(3, static_cast<double>(rng.Uniform(-4, 4)));
      if (rng.Next() % 10 < 3) b.SetNull(4); else b.SetBool(4, rng.Next() % 2 == 0);
      if (rng.Next() % 10 < 3) b.SetNull(5); else b.SetDate(5, rng.Uniform(0, 100));
      if (rng.Next() % 10 < 3) b.SetNull(6); else b.SetString(6, rng.Next() % 2 == 0 ? "abc" : "xy");
      rows_.push_back(b.Finish(&arena_));
    }
  }

  // --- Random tree generation -------------------------------------------

  ExprPtr RandomLeaf(Rng* rng, bool allow_string) {
    switch (rng->Next() % (allow_string ? 8 : 7)) {
      case 0: return MakeColumnRefUnchecked(0, DataType::kInt64, "i0");
      case 1: return MakeColumnRefUnchecked(1, DataType::kInt64, "i1");
      case 2: return MakeColumnRefUnchecked(2, DataType::kDouble, "d0");
      case 3: return MakeColumnRefUnchecked(3, DataType::kDouble, "d1");
      case 4: return MakeColumnRefUnchecked(4, DataType::kBool, "b0");
      case 5: return MakeColumnRefUnchecked(5, DataType::kDate, "t0");
      case 6: {  // Literal, occasionally NULL, occasionally zero.
        switch (rng->Next() % 5) {
          case 0: return MakeLiteral(Value::Int64(rng->Uniform(-3, 3)));
          case 1: return MakeLiteral(Value::Int64(0));
          case 2: return MakeLiteral(Value::Double(static_cast<double>(rng->Uniform(-4, 4)) * 0.25));
          case 3: return MakeLiteral(Value::Bool(rng->Next() % 2 == 0));
          default: return MakeLiteral(Value::Null(DataType::kInt64));
        }
      }
      default: return MakeColumnRefUnchecked(6, DataType::kString, "s0");
    }
  }

  // Builds a random tree; returns nullptr when the type checker rejects the
  // drawn combination (caller redraws). String leaves are allowed with low
  // probability so some trees exercise the Compile -> nullptr fallback.
  ExprPtr RandomTree(Rng* rng, int depth) {
    const bool allow_string = rng->Next() % 8 == 0;
    if (depth >= kMaxDepth || rng->Next() % 4 == 0) {
      return RandomLeaf(rng, allow_string);
    }
    if (rng->Next() % 4 == 0) {  // Unary.
      ExprPtr operand = RandomTree(rng, depth + 1);
      if (operand == nullptr) return nullptr;
      auto op = static_cast<UnaryOp>(rng->Next() % 4);
      auto r = MakeUnary(op, std::move(operand));
      return r.ok() ? std::move(*r) : nullptr;
    }
    ExprPtr left = RandomTree(rng, depth + 1);
    ExprPtr right = RandomTree(rng, depth + 1);
    if (left == nullptr || right == nullptr) return nullptr;
    auto op = static_cast<BinaryOp>(rng->Next() % 13);  // Includes kLike.
    auto r = MakeBinary(op, std::move(left), std::move(right));
    return r.ok() ? std::move(*r) : nullptr;
  }

  // --- Differential check ------------------------------------------------

  static void ExpectLaneEqualsInterpreter(const Value& expect,
                                          const ColumnVector& col,
                                          size_t lane, const std::string& ctx) {
    const bool vnull = col.nulls[lane] != 0;
    ASSERT_EQ(expect.is_null(), vnull) << ctx;
    if (vnull) return;
    if (col.is_double()) {
      ASSERT_EQ(expect.type(), DataType::kDouble) << ctx;
      // Bit-pattern comparison: NaN == NaN, -0.0 != 0.0 would be caught.
      int64_t ebits, vbits;
      double ed = expect.double_value(), vd = col.f64[lane];
      std::memcpy(&ebits, &ed, 8);
      std::memcpy(&vbits, &vd, 8);
      ASSERT_EQ(ebits, vbits) << ctx << " expect=" << ed << " got=" << vd;
    } else if (expect.type() == DataType::kBool) {
      ASSERT_EQ(expect.bool_value() ? 1 : 0, col.i64[lane]) << ctx;
    } else {
      ASSERT_EQ(expect.int64_value(), col.i64[lane]) << ctx;
    }
  }

  // Runs `program` over rows_ in chunks of `width` and compares every lane
  // against the interpreter. Also checks RunFilter for boolean programs.
  void CheckProgram(const Expression& expr, CompiledExpr* program,
                    size_t width, const std::string& ctx) {
    VectorBatch batch;
    SelectionVector sel;
    for (size_t base = 0; base < rows_.size(); base += width) {
      const size_t n = std::min(width, rows_.size() - base);
      RowBatchDecoder::Decode(rows_.data() + base, n, schema_,
                              program->input_columns(), &batch);
      const ColumnVector& result = program->Run(batch);
      for (size_t lane = 0; lane < n; ++lane) {
        TupleView view(rows_[base + lane], &schema_);
        Value expect = expr.Evaluate(view);
        ExpectLaneEqualsInterpreter(
            expect, result, lane,
            ctx + " row=" + std::to_string(base + lane) + " width=" +
                std::to_string(width));
      }
      if (expr.result_type() == DataType::kBool) {
        program->RunFilter(batch, &sel);
        size_t k = 0;
        for (size_t lane = 0; lane < n; ++lane) {
          TupleView view(rows_[base + lane], &schema_);
          if (EvaluatePredicate(expr, view)) {
            ASSERT_LT(k, sel.count) << ctx;
            ASSERT_EQ(sel.idx[k], lane) << ctx;
            ++k;
          }
        }
        ASSERT_EQ(k, sel.count) << ctx;
      }
    }
  }

  // Compiles and checks at every width; returns false when the tree did not
  // compile (expected for string/LIKE subtrees).
  bool CompileAndCheck(const Expression& expr, const std::string& ctx) {
    auto program = CompiledExpr::Compile(expr, schema_);
    if (program == nullptr) return false;
    for (size_t width : {size_t{1}, size_t{7}, size_t{256}, size_t{1024}}) {
      CheckProgram(expr, program.get(), width, ctx);
    }
    return true;
  }

  Schema schema_;
  Arena arena_;
  std::vector<const uint8_t*> rows_;
};

TEST_F(VectorEvalFuzzTest, RandomTreesMatchInterpreter) {
  BuildRows(/*seed=*/42);
  Rng rng(7);
  int compiled = 0, skipped = 0, drawn = 0;
  while (drawn < 400) {
    ExprPtr tree = RandomTree(&rng, 0);
    if (tree == nullptr) continue;  // Type checker rejected; redraw.
    ++drawn;
    if (CompileAndCheck(*tree, tree->ToString())) {
      ++compiled;
    } else {
      ++skipped;  // String/LIKE subtree: interpreter fallback path.
    }
  }
  // The engine must compile the overwhelming majority of drawn trees --
  // a regression that silently rejects e.g. all kDate comparisons would
  // show up here long before it showed up in a benchmark.
  EXPECT_GT(compiled, 100) << "compiled=" << compiled << " skipped=" << skipped;
  EXPECT_GT(skipped, 0) << "no tree exercised the non-compilable fallback";
}

TEST_F(VectorEvalFuzzTest, FoldedTreesMatchUnfolded) {
  BuildRows(/*seed=*/43);
  Rng rng(11);
  int folded_checked = 0;
  for (int t = 0; t < 120; ++t) {
    ExprPtr tree = RandomTree(&rng, 0);
    if (tree == nullptr) continue;
    ExprPtr original = tree->Clone();
    ExprPtr folded = FoldConstants(std::move(tree));
    // The folded tree must agree with the *unfolded* interpreter on every
    // row (vectorized and interpreted alike).
    if (CompileAndCheck(*original, "unfolded:" + original->ToString())) {
      ++folded_checked;
    }
    auto program = CompiledExpr::Compile(*folded, schema_);
    if (program == nullptr) continue;
    VectorBatch batch;
    for (size_t base = 0; base < rows_.size(); base += 256) {
      const size_t n = std::min<size_t>(256, rows_.size() - base);
      RowBatchDecoder::Decode(rows_.data() + base, n, schema_,
                              program->input_columns(), &batch);
      const ColumnVector& result = program->Run(batch);
      for (size_t lane = 0; lane < n; ++lane) {
        TupleView view(rows_[base + lane], &schema_);
        ExpectLaneEqualsInterpreter(original->Evaluate(view), result, lane,
                                    "folded:" + folded->ToString());
      }
    }
  }
  EXPECT_GT(folded_checked, 20);
}

TEST_F(VectorEvalFuzzTest, DivisionByZeroAndInt64MinEdge) {
  // INT64_MIN / -1 is the one deliberate divergence from UB: both engines
  // define it as INT64_MIN. Build targeted rows instead of waiting for the
  // fuzzer to draw them.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Arena arena;
  std::vector<const uint8_t*> rows;
  const int64_t cases[][2] = {
      {5, 0}, {0, 0}, {-7, 0}, {INT64_MIN, -1}, {INT64_MIN, 1}, {42, -1}};
  for (const auto& c : cases) {
    TupleBuilder b(&schema);
    b.SetInt64(0, c[0]);
    b.SetInt64(1, c[1]);
    rows.push_back(b.Finish(&arena));
  }
  auto div = MakeBinary(BinaryOp::kDiv,
                        MakeColumnRefUnchecked(0, DataType::kInt64, "a"),
                        MakeColumnRefUnchecked(1, DataType::kInt64, "b"));
  ASSERT_TRUE(div.ok());
  auto program = CompiledExpr::Compile(**div, schema);
  ASSERT_NE(program, nullptr);
  VectorBatch batch;
  RowBatchDecoder::Decode(rows.data(), rows.size(), schema,
                          program->input_columns(), &batch);
  const ColumnVector& result = program->Run(batch);
  for (size_t i = 0; i < rows.size(); ++i) {
    Value expect = (*div)->Evaluate(TupleView(rows[i], &schema));
    ExpectLaneEqualsInterpreter(expect, result, i,
                                "div case " + std::to_string(i));
  }
  EXPECT_NE(result.nulls[0], 0);                    // 5 / 0 -> NULL
  EXPECT_EQ(result.i64[3], INT64_MIN);              // INT64_MIN / -1
  EXPECT_EQ(result.nulls[3], 0);
}

TEST_F(VectorEvalFuzzTest, KleeneTruthTables) {
  // All nine (T, F, NULL)^2 combinations for AND and OR.
  Schema schema({{"x", DataType::kBool}, {"y", DataType::kBool}});
  Arena arena;
  std::vector<const uint8_t*> rows;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      TupleBuilder b(&schema);
      if (x == 2) b.SetNull(0); else b.SetBool(0, x == 1);
      if (y == 2) b.SetNull(1); else b.SetBool(1, y == 1);
      rows.push_back(b.Finish(&arena));
    }
  }
  for (BinaryOp op : {BinaryOp::kAnd, BinaryOp::kOr}) {
    auto e = MakeBinary(op, MakeColumnRefUnchecked(0, DataType::kBool, "x"),
                        MakeColumnRefUnchecked(1, DataType::kBool, "y"));
    ASSERT_TRUE(e.ok());
    auto program = CompiledExpr::Compile(**e, schema);
    ASSERT_NE(program, nullptr);
    VectorBatch batch;
    RowBatchDecoder::Decode(rows.data(), rows.size(), schema,
                            program->input_columns(), &batch);
    const ColumnVector& result = program->Run(batch);
    for (size_t i = 0; i < rows.size(); ++i) {
      Value expect = (*e)->Evaluate(TupleView(rows[i], &schema));
      ExpectLaneEqualsInterpreter(expect, result, i,
                                  std::string(BinaryOpName(op)) + " case " +
                                      std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace bufferdb
