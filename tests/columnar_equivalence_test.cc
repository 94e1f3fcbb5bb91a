// Columnar-scan equivalence suite (DESIGN.md §12): the planner's
// columnar_scan knob must be invisible in results. Covers
//   1. the batch-equivalence plan corpus (Exchange degrees 1/2/8, widths
//      1/7/256/1024) with columnar_scan on vs off,
//   2. zone-map pruning correctness on block-boundary-straddling predicates
//      and all-NULL blocks (pruning must change counters, never results),
//   3. dictionary round-trip and differential fuzz of the conjunct filter
//      (dictionary-code string tests beside numeric and program conjuncts,
//      and conjuncts that leave the scan to the interpreter) against the
//      per-tuple interpreter,
//   4. the columns a planned ColumnScan publishes, and their contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/date.h"
#include "exec/column_scan.h"
#include "exec/seq_scan.h"
#include "parallel/morsel.h"
#include "plan/physical_planner.h"
#include "sql/binder.h"
#include "storage/column_table.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Canonical;
using testutil::Col;
using testutil::ContractChecked;
using testutil::Lit;
using testutil::RunPlan;

std::vector<std::vector<Value>> BoxRows(const std::vector<const uint8_t*>& rows,
                                        const Schema& schema) {
  std::vector<std::vector<Value>> out;
  for (const uint8_t* row : rows) {
    TupleView view(row, &schema);
    std::vector<Value> values;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(view.GetValue(c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

std::vector<std::vector<Value>> RunPlanBatched(Operator* root, size_t batch) {
  ExecContext ctx;
  auto rows = ExecutePlanBatched(root, &ctx, batch);
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return {};
  return BoxRows(*rows, root->output_schema());
}

// (k INT64, v DOUBLE, s STRING) table with periodic NULLs in every column
// and a columnar image attached. k is ascending (tight zone maps), strings
// come from a vocabulary with shared prefixes so LIKE-prefix ranges span
// several dictionary entries.
std::unique_ptr<Table> MakeColumnarTable(size_t n) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"s", DataType::kString}});
  auto table = std::make_unique<Table>("ct", schema);
  const char* kVocab[] = {"alpha", "alpine", "beta",  "betamax", "gamma",
                          "gap",   "delta",  "delia", "omega",   "omen"};
  for (size_t i = 0; i < n; ++i) {
    Value k = (i % 11 == 3) ? Value::Null(DataType::kInt64)
                            : Value::Int64(static_cast<int64_t>(i));
    Value v = (i % 13 == 5)
                  ? Value::Null(DataType::kDouble)
                  : Value::Double(static_cast<double>(i % 1000) / 4.0);
    Value s = (i % 17 == 7) ? Value::Null(DataType::kString)
                            : Value::String(kVocab[(i * 7) % 10]);
    table->AppendRow({k, v, s});
  }
  table->AttachColumnar(ColumnarTable::Build(*table));
  return table;
}

// Published columns must describe exactly the `n` rows just returned, lane
// for lane, or nothing at all (staged rows handed out by NextBatch).
void ExpectPublishedMatches(const ColumnScanOperator& scan,
                            const uint8_t* const* rows, size_t n) {
  const VectorBatch* pub = scan.BatchColumns();
  ASSERT_NE(pub, nullptr);
  if (pub->rows() == 0) return;
  ASSERT_EQ(pub->rows(), n);
  const Schema& schema = scan.output_schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnVector* vec = pub->Find(static_cast<int>(c));
    if (vec == nullptr) continue;
    for (size_t k = 0; k < n; ++k) {
      Value v = TupleView(rows[k], &schema).GetValue(c);
      ASSERT_EQ(vec->null_data()[k] != 0, v.is_null()) << "col " << c;
      if (v.is_null()) continue;
      if (vec->is_double()) {
        EXPECT_EQ(vec->f64_data()[k], v.double_value()) << "col " << c;
      } else {
        EXPECT_EQ(vec->i64_data()[k], v.int64_value()) << "col " << c;
      }
    }
  }
}

enum class Drain { kNextBatch, kNext, kAlternating };

// Drains `root` (`scan`, possibly contract-wrapped) at `width`: through
// NextBatch only, Next only, or one Next then one NextBatch in turn. Every
// column is requested; the scan publishes k and v, and not the string s.
std::vector<std::vector<Value>> DrainScan(Operator* root,
                                          const ColumnScanOperator& scan,
                                          size_t width, Drain drain) {
  ExecContext ctx;
  EXPECT_TRUE(root->Open(&ctx).ok());
  EXPECT_FALSE(root->RequestColumns(std::vector<int>{0, 1, 2}, true));
  EXPECT_EQ(scan.published_columns(), (std::vector<int>{0, 1}));
  std::vector<const uint8_t*> rows;
  std::vector<const uint8_t*> slice(width);
  auto pull_batch = [&] {
    size_t n = root->NextBatch(slice.data(), width);
    ExpectPublishedMatches(scan, slice.data(), n);
    rows.insert(rows.end(), slice.begin(), slice.begin() + n);
    return n;
  };
  for (;;) {
    if (drain == Drain::kNextBatch) {
      if (pull_batch() == 0) break;
      continue;
    }
    const uint8_t* row = root->Next();
    if (row == nullptr) break;
    rows.push_back(row);
    if (drain == Drain::kAlternating && pull_batch() == 0) break;
  }
  auto out = BoxRows(rows, root->output_schema());
  root->Close();
  return out;
}

// ---------------------------------------------------------------------------
// 1. Planner corpus: columnar_scan on vs off must be result-identical.
// ---------------------------------------------------------------------------

class ColumnarPlanEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(config, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  OperatorPtr MustPlan(const std::string& sql, PlannerOptions options) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  // Runs `sql` with columnar_scan off (the unrefined reference) and on,
  // unrefined and refined, across Exchange degrees 1/2/8 at the
  // parameterized batch width; results must match order-insensitively
  // (worker interleaving is nondeterministic). Refined batched plans get no
  // Buffer, so each consumer reads the columns its ColumnScan publishes;
  // width 1 plans scan rows (SeqScan) and keep their Buffers.
  void CheckKnobInvisible(const std::string& sql) {
    for (size_t degree : {1u, 2u, 8u}) {
      PlannerOptions off;
      off.parallel_degree = degree;
      off.batch_size = GetParam();
      off.columnar_scan = false;
      OperatorPtr reference = MustPlan(sql, off);
      auto expected = Canonical(RunPlanBatched(reference.get(), GetParam()));

      for (bool refine : {false, true}) {
        PlannerOptions on = off;
        on.columnar_scan = true;
        on.refine = refine;
        OperatorPtr plan = MustPlan(sql, on);
        auto actual = Canonical(RunPlanBatched(plan.get(), GetParam()));
        EXPECT_EQ(expected, actual) << "degree " << degree
                                    << (refine ? ", refined" : "")
                                    << " sql: " << sql;
      }
    }
  }

  static Catalog* catalog_;
};

Catalog* ColumnarPlanEquivalenceTest::catalog_ = nullptr;

TEST_P(ColumnarPlanEquivalenceTest, NumericFilterProjection) {
  CheckKnobInvisible(
      "SELECT l_orderkey, l_quantity FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'");
}

TEST_P(ColumnarPlanEquivalenceTest, JoinAggregate) {
  CheckKnobInvisible(
      "SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'");
}

TEST_P(ColumnarPlanEquivalenceTest, StringEquality) {
  CheckKnobInvisible(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_orderpriority = '1-URGENT'");
}

TEST_P(ColumnarPlanEquivalenceTest, LikePrefix) {
  CheckKnobInvisible(
      "SELECT o_orderkey FROM orders WHERE o_orderpriority LIKE '1-%'");
}

TEST_P(ColumnarPlanEquivalenceTest, ConjunctionWithStringAndRange) {
  CheckKnobInvisible(
      "SELECT o_orderkey FROM orders "
      "WHERE o_orderpriority = '5-LOW' AND o_totalprice < 150000.0");
}

INSTANTIATE_TEST_SUITE_P(Widths, ColumnarPlanEquivalenceTest,
                         ::testing::Values(1, 7, 256, 1024));

// ---------------------------------------------------------------------------
// 2. Zone-map pruning: counters move, results don't.
// ---------------------------------------------------------------------------

struct PruneCase {
  const char* name;
  ExprPtr (*make)(const Schema&);
  uint64_t min_blocks_pruned;  // Lower bound on blocks pruned (3-block table).
};

class ZoneMapPruningTest : public ::testing::Test {
 protected:
  // Drains a ColumnScan and a SeqScan over the same table with clones of
  // `predicate` and compares; returns the ColumnScan's pruning counter.
  uint64_t CheckAndCountPruned(Table* table, const ExprPtr& predicate) {
    auto reference = std::make_unique<SeqScanOperator>(
        table, predicate ? predicate->Clone() : nullptr);
    auto expected = RunPlan(reference.get());

    auto cscan = std::make_unique<ColumnScanOperator>(
        table, predicate ? predicate->Clone() : nullptr);
    ColumnScanOperator* hook = cscan.get();
    auto actual = RunPlanBatched(cscan.get(), 1024);
    uint64_t pruned = hook->blocks_pruned();

    EXPECT_EQ(Canonical(expected), Canonical(actual));
    EXPECT_EQ(expected.size(), actual.size());
    return pruned;
  }
};

TEST_F(ZoneMapPruningTest, BlockBoundaryPredicates) {
  // 3 full blocks; k ascending, so block b covers k in roughly
  // [4096*b, 4096*(b+1)) with NULL holes.
  auto table = MakeColumnarTable(3 * kZoneBlockRows);
  const Schema& s = table->schema();
  const int64_t b = static_cast<int64_t>(kZoneBlockRows);

  struct Case {
    ExprPtr pred;
    uint64_t min_pruned;
  };
  std::vector<Case> cases;
  // Exactly the first block survives k < 4096: blocks 1 and 2 pruned.
  cases.push_back({Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(b))), 2});
  // The same test with the literal on the left: 4096 > k is k < 4096.
  cases.push_back({Bin(BinaryOp::kGt, Lit(Value::Int64(b)), Col(s, "k")), 2});
  // k <= 4096 straddles the block 0/1 boundary by one row: only block 2
  // prunable.
  cases.push_back({Bin(BinaryOp::kLe, Col(s, "k"), Lit(Value::Int64(b))), 1});
  // Equality on the first row of block 1: blocks 0 and 2 pruned.
  cases.push_back({Bin(BinaryOp::kEq, Col(s, "k"), Lit(Value::Int64(b))), 2});
  // Range straddling the boundary: block 2 pruned.
  cases.push_back(
      {Bin(BinaryOp::kAnd,
           Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(b - 100))),
           Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(b + 100)))),
       1});
  // Last block only.
  cases.push_back(
      {Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(2 * b))), 2});
  // Nothing matches: everything pruned.
  cases.push_back(
      {Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(-5))), 3});
  // Everything matches: nothing prunable.
  cases.push_back(
      {Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(-5))), 0});
  // A conjunct that does not compile leaves the others' zone tests: the
  // scan interprets the predicate and still prunes blocks 1 and 2.
  ExprPtr uncompiled =
      Bin(BinaryOp::kAnd, Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(b))),
          Bin(BinaryOp::kLike, Col(s, "s"), Lit(Value::String("%ph%"))));
  EXPECT_EQ(ColumnScanOperator(table.get(), uncompiled->Clone())
                .compiled_predicate(),
            nullptr);
  cases.push_back({std::move(uncompiled), 2});

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    uint64_t pruned = CheckAndCountPruned(table.get(), cases[i].pred);
    EXPECT_GE(pruned, cases[i].min_pruned);
  }
}

TEST_F(ZoneMapPruningTest, AllNullBlocks) {
  // Middle block's v is entirely NULL: any comparison on v prunes it.
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>("nulls", schema);
  const size_t n = 3 * kZoneBlockRows;
  for (size_t i = 0; i < n; ++i) {
    bool middle = i >= kZoneBlockRows && i < 2 * kZoneBlockRows;
    table->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                      middle ? Value::Null(DataType::kDouble)
                             : Value::Double(static_cast<double>(i % 90))});
  }
  table->AttachColumnar(ColumnarTable::Build(*table));
  const Schema& s = table->schema();

  uint64_t pruned = CheckAndCountPruned(
      table.get(), Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(50.0))));
  EXPECT_GE(pruned, 1u);
  pruned = CheckAndCountPruned(
      table.get(), Bin(BinaryOp::kEq, Col(s, "v"), Lit(Value::Double(7.0))));
  EXPECT_GE(pruned, 1u);
  // A DOUBLE column against an INT64 literal is a double test, in the
  // filter's selection loop and against the zone maps alike.
  pruned = CheckAndCountPruned(
      table.get(), Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Int64(50))));
  EXPECT_GE(pruned, 1u);
}

TEST_F(ZoneMapPruningTest, StringZoneMapsInCodeSpace) {
  // String zone maps prune in dictionary-code space: a table whose string
  // column is block-sorted prunes equality probes to one block.
  Schema schema({{"s", DataType::kString}});
  auto table = std::make_unique<Table>("strs", schema);
  const char* kByBlock[] = {"aardvark", "marmot", "zebra"};
  for (size_t blk = 0; blk < 3; ++blk) {
    for (size_t i = 0; i < kZoneBlockRows; ++i) {
      table->AppendRow({Value::String(kByBlock[blk])});
    }
  }
  table->AttachColumnar(ColumnarTable::Build(*table));
  const Schema& s = table->schema();

  uint64_t pruned = CheckAndCountPruned(
      table.get(),
      Bin(BinaryOp::kEq, Col(s, "s"), Lit(Value::String("marmot"))));
  EXPECT_GE(pruned, 2u);
  // Absent literal: its code -1 lies below every block's codes, so every
  // block is pruned.
  pruned = CheckAndCountPruned(
      table.get(),
      Bin(BinaryOp::kEq, Col(s, "s"), Lit(Value::String("wombat"))));
  EXPECT_GE(pruned, 3u);
}

// ---------------------------------------------------------------------------
// 3. Dictionary: round-trip and differential fuzz vs the interpreter.
// ---------------------------------------------------------------------------

TEST(DictionaryTest, RoundTrip) {
  auto table = MakeColumnarTable(2000);
  const ColumnarTable* ct = table->columnar();
  ASSERT_NE(ct, nullptr);
  const ColumnSegment& seg = ct->segment(2);
  ASSERT_EQ(seg.type, DataType::kString);
  ASSERT_TRUE(ct->HasDict(2));

  // Sorted, unique dictionary.
  for (size_t i = 1; i < seg.dict.size(); ++i) {
    EXPECT_LT(seg.dict[i - 1], seg.dict[i]);
  }
  // Every non-NULL row decodes back to its source string; NULL rows carry
  // the zero-payload normalization.
  const Schema& schema = table->schema();
  for (size_t i = 0; i < table->num_rows(); ++i) {
    TupleView view(table->row(i), &schema);
    if (view.IsNull(2)) {
      EXPECT_EQ(seg.nulls[i], 1);
      EXPECT_EQ(seg.codes[i], 0);
    } else {
      EXPECT_EQ(seg.nulls[i], 0);
      EXPECT_EQ(seg.dict[static_cast<size_t>(seg.codes[i])],
                view.GetValue(2).string_value());
    }
  }
  // CodeOf agrees with the dictionary; absent strings report -1.
  for (size_t c = 0; c < seg.dict.size(); ++c) {
    EXPECT_EQ(ct->CodeOf(2, seg.dict[c]), static_cast<int64_t>(c));
  }
  EXPECT_EQ(ct->CodeOf(2, "no-such-string"), -1);

  // PrefixRange matches a brute-force scan of the dictionary.
  for (std::string prefix : {"a", "al", "b", "beta", "g", "z", ""}) {
    int64_t lo = 0, hi = 0;
    ASSERT_TRUE(ct->PrefixRange(2, prefix, &lo, &hi)) << prefix;
    for (size_t c = 0; c < seg.dict.size(); ++c) {
      bool has_prefix = seg.dict[c].compare(0, prefix.size(), prefix) == 0;
      bool in_range = static_cast<int64_t>(c) >= lo &&
                      static_cast<int64_t>(c) < hi;
      EXPECT_EQ(has_prefix, in_range) << prefix << " vs " << seg.dict[c];
    }
  }
}

// AND chains of one to five conjuncts that put dictionary-coded string
// conjuncts (equality, `<>`, an absent literal, ranges, `LIKE 'p%'`, the
// empty prefix) beside numeric ones, beside program conjuncts that mix the
// two and beside LIKE patterns no dictionary test covers: the ColumnScan's
// conjunct-by-conjunct filter runs on dictionary codes, or the interpreter
// when a conjunct does not compile, prunes blocks by the column tests
// either way, and returns exactly the rows of the per-tuple interpreter, in
// table order, at every width, publishing each run's columns.
TEST(DictionaryTest, DifferentialFuzzVsInterpreter) {
  auto table = MakeColumnarTable(5000);
  const Schema& s = table->schema();
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // Candidate literals: vocabulary members, non-members, and prefixes.
  const char* kLiterals[] = {"alpha", "alp",  "beta", "betamax", "b",
                             "a",     "gap",  "gaps", "del",     "delia",
                             "omega", "omen", "zzz",  ""};
  bool compiles = true;
  auto conjunct = [&]() -> ExprPtr {
    const std::string lit = kLiterals[next() % std::size(kLiterals)];
    const int64_t k = static_cast<int64_t>(next() % 5000);
    switch (next() % 13) {
      case 0: return Bin(BinaryOp::kEq, Col(s, "s"), Lit(Value::String(lit)));
      case 1: return Bin(BinaryOp::kNe, Lit(Value::String(lit)), Col(s, "s"));
      case 2: return Bin(BinaryOp::kLe, Col(s, "s"), Lit(Value::String(lit)));
      case 3: return Bin(BinaryOp::kGt, Lit(Value::String(lit)), Col(s, "s"));
      case 4: return Bin(BinaryOp::kLt, Col(s, "s"), Lit(Value::String(lit)));
      case 5:
        return Bin(BinaryOp::kLike, Col(s, "s"), Lit(Value::String(lit + "%")));
      case 6: return Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(k)));
      case 7: return Bin(BinaryOp::kGe, Lit(Value::Int64(k)), Col(s, "k"));
      case 8:
        return Bin(BinaryOp::kGe, Col(s, "v"),
                   Lit(Value::Double(static_cast<double>(k % 250))));
      case 9: return Bin(BinaryOp::kNe, Col(s, "k"), Lit(Value::Int64(k)));
      case 10:  // Neither pattern is a prefix: the interpreter runs.
      case 11:
        compiles = false;
        return Bin(BinaryOp::kLike, Col(s, "s"),
                   Lit(Value::String(next() % 2 == 0 ? "%ph%" : "a_%")));
      default:  // A program conjunct: a string test OR a numeric one.
        return Bin(BinaryOp::kOr,
                   Bin(BinaryOp::kEq, Col(s, "s"), Lit(Value::String(lit))),
                   Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(20.0))));
    }
  };
  for (int trial = 0; trial < 100; ++trial) {
    compiles = true;
    ExprPtr pred = conjunct();
    const int more = static_cast<int>(next() % 5);
    for (int c = 0; c < more; ++c) {
      pred = Bin(BinaryOp::kAnd, std::move(pred), conjunct());
    }
    auto reference =
        std::make_unique<SeqScanOperator>(table.get(), pred->Clone());
    const auto expected = RunPlan(reference.get());
    for (size_t width : {1u, 7u, 256u, 1024u}) {
      SCOPED_TRACE(::testing::Message()
                   << pred->ToString() << " width " << width);
      auto cscan =
          std::make_unique<ColumnScanOperator>(table.get(), pred->Clone());
      ColumnScanOperator* hook = cscan.get();
      // String predicates run on dictionary codes, not the interpreter,
      // unless some conjunct does not compile.
      EXPECT_EQ(hook->compiled_predicate() != nullptr, compiles);
      OperatorPtr root = ContractChecked(std::move(cscan));
      EXPECT_EQ(expected,
                DrainScan(root.get(), *hook, width, Drain::kNextBatch));
    }
  }
}

// ---------------------------------------------------------------------------
// Direct operator equivalence across widths, contract-checked.
// ---------------------------------------------------------------------------

class ColumnScanWidthTest : public ::testing::TestWithParam<size_t> {};

// Next() drains NextBatch() through a staging array, so every drain —
// NextBatch only, Next only, or the two alternating — must return the
// SeqScan rows in table order, neither skipping nor repeating one. Covered in
// full-table mode and bound to a morsel cursor (100-row morsels, so no width
// lines up with them), with the compiled predicate and with the interpreter
// fallback.
TEST_P(ColumnScanWidthTest, MatchesSeqScanAcrossWidths) {
  auto table = MakeColumnarTable(997);  // No width divides this evenly.
  const Schema& s = table->schema();
  std::vector<ExprPtr> preds;
  preds.push_back(nullptr);
  preds.push_back(Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(100.0))));
  preds.push_back(
      Bin(BinaryOp::kEq, Col(s, "s"), Lit(Value::String("alpha"))));
  for (const ExprPtr& pred : preds) {
    OperatorPtr reference = ContractChecked(std::make_unique<SeqScanOperator>(
        table.get(), pred ? pred->Clone() : nullptr));
    const auto expected = RunPlan(reference.get());
    for (bool morsels : {false, true}) {
      for (bool vectorized : {true, false}) {
        for (Drain drain :
             {Drain::kNextBatch, Drain::kNext, Drain::kAlternating}) {
          SCOPED_TRACE(::testing::Message()
                       << (pred ? pred->ToString() : "no predicate")
                       << (morsels ? ", morsels" : ", full table")
                       << (vectorized ? ", compiled" : ", interpreted")
                       << ", drain " << static_cast<int>(drain));
          parallel::MorselCursor cursor(table->num_rows(), 100);
          auto cscan = std::make_unique<ColumnScanOperator>(
              table.get(), pred ? pred->Clone() : nullptr);
          ColumnScanOperator* hook = cscan.get();
          hook->set_vectorized_eval(vectorized);
          if (morsels) hook->BindMorselCursor(&cursor);
          OperatorPtr root = ContractChecked(std::move(cscan));
          EXPECT_EQ(expected, DrainScan(root.get(), *hook, GetParam(), drain));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ColumnScanWidthTest,
                         ::testing::Values(1, 7, 256, 1024));

// Rescan, and Close followed by Open, empty the stage: a scan pulled part
// way through Next() starts over instead of replaying staged rows.
TEST(ColumnScanStageTest, RescanAndReopenStartOver) {
  auto table = MakeColumnarTable(997);
  auto reference = std::make_unique<SeqScanOperator>(table.get(), nullptr);
  const auto expected = RunPlan(reference.get());
  OperatorPtr root = ContractChecked(
      std::make_unique<ColumnScanOperator>(table.get(), nullptr));
  auto drain = [&] {
    std::vector<const uint8_t*> rows;
    while (const uint8_t* row = root->Next()) rows.push_back(row);
    return BoxRows(rows, root->output_schema());
  };
  ExecContext ctx;
  ASSERT_TRUE(root->Open(&ctx).ok());
  ASSERT_NE(root->Next(), nullptr);
  ASSERT_TRUE(root->Rescan().ok());
  EXPECT_EQ(expected, drain());
  ASSERT_TRUE(root->Rescan().ok());
  ASSERT_NE(root->Next(), nullptr);
  root->Close();
  ASSERT_TRUE(root->Open(&ctx).ok());
  EXPECT_EQ(expected, drain());
  root->Close();
}

// ---------------------------------------------------------------------------
// Published columns: a planned ColumnScan publishes what its consumer reads.
// ---------------------------------------------------------------------------

class ColumnScanPublishTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(config, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  // The batched plan of `sql`, refined or not.
  static OperatorPtr Plan(const std::string& sql, bool refine,
                          JoinStrategy joins = JoinStrategy::kAuto) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PlannerOptions options;
    options.batch_size = Operator::kDefaultBatchSize;
    options.refine = refine;
    options.join_strategy = joins;
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  static const ColumnScanOperator* FindColumnScan(const Operator& op) {
    if (auto* scan = dynamic_cast<const ColumnScanOperator*>(&op)) return scan;
    for (size_t i = 0; i < op.num_children(); ++i) {
      if (const ColumnScanOperator* scan = FindColumnScan(*op.child(i))) {
        return scan;
      }
    }
    return nullptr;
  }

  static std::vector<int> Columns(const Table& table,
                                  std::vector<std::string> names) {
    std::vector<int> out;
    for (const std::string& name : names) {
      out.push_back(table.schema().FindColumn(name));
    }
    return out;
  }

  // The columns `scan` publishes once `plan` (its plan) is drained through
  // NextBatch, as a batched client drains it, in table order: what its
  // consumer requested after Open.
  static std::vector<int> Published(Operator* plan,
                                    const ColumnScanOperator& scan) {
    ExecContext ctx;
    auto rows = ExecutePlanBatched(plan, &ctx);
    EXPECT_TRUE(rows.ok() && !rows->empty()) << rows.status();
    std::vector<int> cols = scan.published_columns();
    std::sort(cols.begin(), cols.end());
    return cols;
  }

  static Catalog* catalog_;
};

Catalog* ColumnScanPublishTest::catalog_ = nullptr;

constexpr char kPaperQuery1[] =
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
    "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'";

// Paper Query 1's scan publishes exactly its aggregate arguments, refined
// or not, and not the predicate's l_shipdate, which nothing above reads.
// The refined batched plan has no Buffer, so the aggregate reads them.
TEST_F(ColumnScanPublishTest, PaperQuery1PublishesItsAggregateArguments) {
  Table* lineitem = catalog_->GetTable("lineitem");
  const std::vector<int> expected = Columns(
      *lineitem, {"l_quantity", "l_extendedprice", "l_discount", "l_tax"});
  for (bool refine : {false, true}) {
    OperatorPtr plan = Plan(kPaperQuery1, refine);
    const ColumnScanOperator* scan = FindColumnScan(*plan);
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(plan->child(0), scan) << "refine " << refine;
    EXPECT_EQ(Published(plan.get(), *scan), expected) << "refine " << refine;
  }
}

// A grouped aggregate requests its programs' inputs: the argument, not the
// bare INT64 group key, which it reads from the rows.
TEST_F(ColumnScanPublishTest, GroupedAggregatePublishesArgumentsNotBareKey) {
  Table* lineitem = catalog_->GetTable("lineitem");
  OperatorPtr plan = Plan(
      "SELECT l_linenumber, SUM(l_quantity), COUNT(*) FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_linenumber",
      /*refine=*/true);
  const ColumnScanOperator* scan = FindColumnScan(*plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(Published(plan.get(), *scan), Columns(*lineitem, {"l_quantity"}));
}

// A scalar aggregate one of whose arguments does not compile loads row by
// row through Next(), reads no column, and so requests none.
TEST_F(ColumnScanPublishTest, UncompiledScalarAggregatePublishesNothing) {
  OperatorPtr plan = Plan(
      "SELECT MIN(l_comment), SUM(l_quantity) FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'",
      /*refine=*/true);
  const ColumnScanOperator* scan = FindColumnScan(*plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(Published(plan.get(), *scan), std::vector<int>{});
}

// Point-query template 2: a bare-column Project copies the rows' slots and
// reads no column, so its scan publishes nothing.
TEST_F(ColumnScanPublishTest, BareColumnProjectScanPublishesNothing) {
  OperatorPtr plan = Plan(
      "SELECT s_suppkey, s_name, s_acctbal FROM supplier "
      "WHERE s_nationkey = 7 ORDER BY s_acctbal DESC, s_suppkey LIMIT 10",
      /*refine=*/true);
  const ColumnScanOperator* scan = FindColumnScan(*plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(Published(plan.get(), *scan), std::vector<int>{});
}

// Grouped on strings and joined: a hash join requests only its key from
// each side and publishes no columns, so its scans publish the keys, not
// the select list's l_extendedprice, and a scan below a merge join's Sort,
// which reads rows, publishes nothing.
TEST_F(ColumnScanPublishTest, JoinScansPublishOnlyTheirKeys) {
  for (JoinStrategy joins :
       {JoinStrategy::kHashJoin, JoinStrategy::kMergeJoin}) {
    SCOPED_TRACE(JoinStrategyName(joins));
    OperatorPtr plan = Plan(
        "SELECT o_orderpriority, l_returnflag, SUM(l_extendedprice) "
        "FROM lineitem, orders WHERE l_orderkey = o_orderkey "
        "AND o_orderdate < DATE '1995-03-15' "
        "GROUP BY o_orderpriority, l_returnflag",
        /*refine=*/true, joins);
    std::vector<const ColumnScanOperator*> scans;
    std::vector<const Operator*> stack = {plan.get()};
    while (!stack.empty()) {
      const Operator* op = stack.back();
      stack.pop_back();
      if (auto* scan = dynamic_cast<const ColumnScanOperator*>(op)) {
        scans.push_back(scan);
      }
      for (size_t i = 0; i < op->num_children(); ++i) {
        stack.push_back(op->child(i));
      }
    }
    ASSERT_EQ(scans.size(), 2u);
    ExecContext ctx;
    ASSERT_TRUE(ExecutePlanBatched(plan.get(), &ctx).ok());
    for (const ColumnScanOperator* scan : scans) {
      const Table& table = *scan->table();
      const char* key =
          table.name() == "lineitem" ? "l_orderkey" : "o_orderkey";
      EXPECT_EQ(scan->published_columns(),
                joins == JoinStrategy::kHashJoin ? Columns(table, {key})
                                                 : std::vector<int>{})
          << table.name();
    }
  }
}

// Drives a ColumnScan over lineitem publishing paper Query 1's columns:
// after every NextBatch each published vector equals the returned rows lane
// for lane, aliasing the segments when the whole run passed and gathered
// otherwise; a string column is never published; and nothing is published
// after a Rescan until the next batch.
TEST_F(ColumnScanPublishTest, PublishedVectorsMatchRowsAliasedAndGathered) {
  Table* lineitem = catalog_->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  const std::vector<int> published = Columns(
      *lineitem, {"l_quantity", "l_extendedprice", "l_discount", "l_tax"});
  struct Case {
    ExprPtr pred;
    bool every_row_passes;
  };
  std::vector<Case> cases;
  cases.push_back({nullptr, true});
  cases.push_back({Bin(BinaryOp::kLe, Col(s, "l_shipdate"),
                       Lit(Value::Date(ParseDate("2100-01-01").value()))),
                   true});
  cases.push_back({Bin(BinaryOp::kAnd,
                       Bin(BinaryOp::kLt, Col(s, "l_quantity"),
                           Lit(Value::Double(10.0))),
                       Bin(BinaryOp::kEq, Col(s, "l_returnflag"),
                           Lit(Value::String("R")))),
                   false});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pred != nullptr ? c.pred->ToString() : "no predicate");
    ColumnScanOperator scan(lineitem, c.pred ? c.pred->Clone() : nullptr);
    ExecContext ctx;
    ASSERT_TRUE(scan.Open(&ctx).ok());
    EXPECT_FALSE(scan.RequestColumns(published, /*rows=*/false));
    std::vector<const uint8_t*> rows(Operator::kDefaultBatchSize);
    size_t batches = 0;
    size_t total = 0;
    while (size_t n = scan.NextBatch(rows.data(), rows.size())) {
      ++batches;
      total += n;
      const VectorBatch* pub = scan.BatchColumns();
      ASSERT_EQ(pub->rows(), n);
      for (size_t col = 0; col < s.num_columns(); ++col) {
        const ColumnVector* vec = pub->Find(static_cast<int>(col));
        const bool listed = std::find(published.begin(), published.end(),
                                      static_cast<int>(col)) != published.end();
        ASSERT_EQ(vec != nullptr, listed) << "col " << col;
        if (vec == nullptr) continue;
        EXPECT_EQ(vec->aliased(), c.every_row_passes) << "col " << col;
        for (size_t k = 0; k < n; ++k) {
          const Value v = TupleView(rows[k], &s).GetValue(col);
          ASSERT_EQ(vec->null_data()[k] != 0, v.is_null()) << "col " << col;
          if (v.is_null()) continue;
          if (vec->is_double()) {
            ASSERT_EQ(vec->f64_data()[k], v.double_value())
                << "col " << col << " lane " << k;
          } else {
            ASSERT_EQ(vec->i64_data()[k], v.int64_value())
                << "col " << col << " lane " << k;
          }
        }
      }
    }
    EXPECT_GT(batches, 1u);
    if (c.every_row_passes) {
      EXPECT_EQ(total, lineitem->num_rows());
    } else {
      EXPECT_LT(total, lineitem->num_rows() / 4);
    }
    ASSERT_TRUE(scan.Rescan().ok());
    EXPECT_EQ(scan.BatchColumns()->rows(), 0u);
    ASSERT_GT(scan.NextBatch(rows.data(), rows.size()), 0u);
    EXPECT_GT(scan.BatchColumns()->rows(), 0u);
    scan.Close();
  }
}

}  // namespace
}  // namespace bufferdb
