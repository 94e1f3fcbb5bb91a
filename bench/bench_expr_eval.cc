// Interpreted vs vectorized expression evaluation, measured in real
// wall-clock time (no CPU simulator) on the 3-op predicate the issue's
// acceptance criterion names:
//
//   k * 7 + v > threshold        (mul, add, compare over int64 columns)
//
// Two engines run the identical predicate over the identical rows:
//
//   interpreted      Expression::Evaluate per row (virtual dispatch per
//                    node, Value boxing per intermediate).
//   vectorized       CompiledExpr::RunFilter; timing includes the
//                    RowBatchDecoder pass, so the decode overhead the
//                    operators actually pay is charged to the kernel side.
//
// Both engines' selection vectors are compared bit-for-bit before any timing
// is reported. Output is JSON lines only (bench_util run header plus one
// object per batch width), so CI archives stdout directly.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.h"
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

ExprPtr MustBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto res = MakeBinary(op, std::move(l), std::move(r));
  if (!res.ok()) {
    std::fprintf(stderr, "predicate build failed: %s\n",
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*res);
}

// k * 7 + v > threshold
ExprPtr MakePredicate(int64_t threshold) {
  ExprPtr mul = MustBinary(BinaryOp::kMul,
                           MakeColumnRefUnchecked(0, DataType::kInt64, "k"),
                           MakeLiteral(Value::Int64(7)));
  ExprPtr add = MustBinary(BinaryOp::kAdd, std::move(mul),
                           MakeColumnRefUnchecked(1, DataType::kInt64, "v"));
  return MustBinary(BinaryOp::kGt, std::move(add),
                    MakeLiteral(Value::Int64(threshold)));
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// One full pass, interpreter engine: returns selected-row count (used both
// as the verification value and to keep the loop from being optimized out).
size_t InterpretedPass(const Expression& pred, const Schema& schema,
                       const std::vector<const uint8_t*>& rows,
                       std::vector<uint32_t>* selected) {
  selected->clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (EvaluatePredicate(pred, TupleView(rows[i], &schema))) {
      selected->push_back(static_cast<uint32_t>(i));
    }
  }
  return selected->size();
}

// One full pass, vectorized engine at the given batch width. Decode is
// inside the timed region on purpose.
size_t VectorizedPass(CompiledExpr* program, const Schema& schema,
                      const std::vector<const uint8_t*>& rows, size_t width,
                      VectorBatch* batch, SelectionVector* sel,
                      std::vector<uint32_t>* selected) {
  selected->clear();
  for (size_t base = 0; base < rows.size(); base += width) {
    const size_t n = std::min(width, rows.size() - base);
    RowBatchDecoder::Decode(rows.data() + base, n, schema,
                            program->input_columns(), batch);
    program->RunFilter(*batch, sel);
    for (size_t k = 0; k < sel->count; ++k) {
      selected->push_back(static_cast<uint32_t>(base + sel->idx[k]));
    }
  }
  return selected->size();
}

}  // namespace
}  // namespace bufferdb

int main(int argc, char** argv) {
  using namespace bufferdb;  // NOLINT
  double sf = bench::ScaleFactorFromArgs(argc, argv);
  bench::PrintJsonHeader("expr_eval", sf);

  const size_t num_rows = bench::SmokeMode() ? 65536 : 1048576;
  const int iters = bench::SmokeIters(7, 15);
  const int64_t threshold = 1500;  // ~50% selectivity for k,v in [0, 1000).

  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"a", DataType::kDouble}});
  Arena arena;
  Rng rng(42);
  std::vector<const uint8_t*> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    TupleBuilder b(&schema);
    b.SetInt64(0, rng.Uniform(0, 999));
    b.SetInt64(1, rng.Uniform(0, 999));
    b.SetDouble(2, rng.NextDouble());
    rows.push_back(b.Finish(&arena));
  }

  ExprPtr pred = MakePredicate(threshold);
  auto program = CompiledExpr::CompileFilter(*pred, schema);
  if (program == nullptr) {
    std::fprintf(stderr, "FAIL: predicate did not compile\n");
    return 1;
  }

  std::vector<uint32_t> sel_interp, sel_vec;
  VectorBatch batch;
  SelectionVector sel;

  for (size_t width : {size_t{256}, size_t{1024}}) {
    // Verification: both engines agree on the selection before timing.
    InterpretedPass(*pred, schema, rows, &sel_interp);
    VectorizedPass(program.get(), schema, rows, width, &batch, &sel, &sel_vec);
    if (sel_interp != sel_vec) {
      std::fprintf(stderr,
                   "FAIL: engines disagree at width %zu "
                   "(interp=%zu vectorized=%zu rows selected)\n",
                   width, sel_interp.size(), sel_vec.size());
      return 1;
    }

    double interp_best = 1e99, vec_best = 1e99;
    size_t sink = 0;
    for (int i = 0; i < iters; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      sink += InterpretedPass(*pred, schema, rows, &sel_interp);
      auto t1 = std::chrono::steady_clock::now();
      sink += VectorizedPass(program.get(), schema, rows, width, &batch, &sel,
                             &sel_vec);
      auto t2 = std::chrono::steady_clock::now();
      interp_best = std::min(interp_best, Seconds(t0, t1));
      vec_best = std::min(vec_best, Seconds(t1, t2));
    }

    const double n = static_cast<double>(num_rows);
    char json[640];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\": \"expr_eval\", \"predicate\": \"k * 7 + v > %lld\", "
        "\"rows\": %zu, \"batch_width\": %zu, \"iters\": %d, "
        "\"selected\": %zu, \"outputs_identical\": true, "
        "\"interpreted_ns_per_row\": %.2f, "
        "\"vectorized_ns_per_row\": %.2f, "
        "\"speedup_vectorized\": %.3f, \"sink\": %zu}",
        static_cast<long long>(threshold), num_rows, width, iters,
        sel_interp.size(), interp_best / n * 1e9, vec_best / n * 1e9,
        interp_best / vec_best, sink);
    bufferdb::bench::EmitJsonLine(json);
  }
  return 0;
}
