#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/arena.h"
#include "common/status.h"
#include "sim/sim_cpu.h"

namespace bufferdb {

class VectorBatch;

/// Per-query execution state shared by all operators in a plan.
///
/// The arena owns every intermediate tuple produced during the query, which
/// is what makes the buffer operator's pointer array safe: buffered tuples
/// are not deallocated until the query finishes (paper §5, footnote 3).
///
/// `cpu` is optional; when set, operators report one ExecuteModuleCall per
/// unit of work (one per input tuple consumed / output tuple produced) plus
/// TouchData for the tuple bytes they access, which is how the simulated
/// hardware counters observe the query.
///
/// Thread-safety: an ExecContext (and the SimCpu it points to) belongs to
/// exactly ONE thread. Under parallel execution the ExchangeOperator gives
/// every worker fragment its own ExecContext with `cpu == nullptr` (or a
/// private per-fragment SimCpu when fragment simulation is enabled) —
/// fragments must never Touch/ExecModule through the consumer's context.
/// Simulated counters therefore only describe the whole query in
/// single-threaded plans; in parallel plans they cover just the operators
/// above the Exchange.
///
/// `error` is the first failure an operator met where it could not return
/// a Status: a join whose inner Rescan fails inside Next, or an Exchange
/// whose workers failed (recorded when its stream ends). The operator ends
/// its stream, and every ExecutePlan* returns the error, so a stream that
/// ended early is told apart from a complete one.
struct ExecContext {
  sim::SimCpu* cpu = nullptr;
  Arena arena;
  Status error;

  void ExecModule(sim::ModuleId module, std::span<const sim::FuncId> funcs) {
    if (cpu != nullptr) cpu->ExecuteModuleCall(module, funcs);
  }
  void Touch(const void* addr, size_t bytes) {
    if (cpu != nullptr) cpu->TouchData(addr, bytes);
  }
  /// Keeps the first non-OK status.
  void RecordError(Status status) {
    if (error.ok()) error = std::move(status);
  }
};

/// Demand-pull (Volcano) operator with the open-next-close interface the
/// paper builds on. Next() returns a pointer to a packed row (see
/// storage/tuple.h) or nullptr when exhausted.
class Operator {
 public:
  /// Default batch width for the NextBatch fast path: large enough to
  /// amortize per-batch costs and cover a prefetch pipeline, small enough
  /// that a batch of row pointers stays in L1-D (256 * 8B = 2KB).
  static constexpr size_t kDefaultBatchSize = 256;

  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  [[nodiscard]] virtual Status Open(ExecContext* ctx) = 0;
  virtual const uint8_t* Next() = 0;
  virtual void Close() = 0;

  /// Batch-at-a-time transfer: fills `out[0..max)` with up to `max` row
  /// pointers and returns the count; 0 means end of stream. A non-final
  /// call may return fewer than `max` rows — callers must keep calling
  /// until 0. Row pointers obey the same lifetime rule as Next() (valid
  /// until the query's arena is released, never invalidated by the next
  /// call). Mixing Next() and NextBatch() on one operator is allowed; the
  /// two drain the same underlying stream.
  ///
  /// One exception: after a RequestColumns() that omitted the rows they
  /// are absent. out[0..n) is then left unwritten, and only the requested
  /// columns of BatchColumns() describe the n rows counted.
  ///
  /// The default implementation loops over Next(), so every operator
  /// supports the batch interface unchanged; operators with a natural
  /// array representation (Buffer, Exchange) or a tight generation loop
  /// (SeqScan, ColumnScan, IndexScan, Filter, Project, IndexNestLoopJoin)
  /// override it, and so do the ContractChecked and Profiled decorators.
  virtual size_t NextBatch(const uint8_t** out, size_t max);

  /// A consumer's request (DESIGN.md §12.2): it reads `columns` (of
  /// output_schema()) of every batch NextBatch() returns, and the rows
  /// themselves unless `rows` is false. A consumer asks after Open() and
  /// before it pulls on the path that reads columns, for exactly the
  /// columns it passes to DecodeMissing or EvaluateJoinKeys; the request
  /// lasts until the next Open(), and a later one replaces it. Returns
  /// whether the rows are omitted: NextBatch() then leaves out[] unwritten
  /// and publishes every requested column in BatchColumns() for each row
  /// it counts, and the consumer pulls through NextBatch() alone. Only a
  /// batched scalar Aggregation sends `rows` false, and only the index join
  /// omits them (for non-string columns). A ColumnScan publishes the
  /// non-string columns asked for; the ContractChecked and Profiled
  /// decorators forward the request; every other operator declines,
  /// returning false and changing nothing.
  virtual bool RequestColumns(std::span<const int> columns, bool rows) {
    (void)columns;
    (void)rows;
    return false;
  }

  /// Re-positions at the beginning without releasing state. Default
  /// implementation is Close+Open.
  [[nodiscard]] virtual Status Rescan();

  /// Columns of the most recent NextBatch() result that this operator
  /// already holds in SoA form (DESIGN.md §12): ColumnScan publishes the
  /// columns its consumer requested (RequestColumns), aliased from or
  /// gathered out of segment storage; Filter publishes its compiled
  /// predicate's inputs gathered by its selection and Project its programs'
  /// results; an index join that omits its rows publishes the requested
  /// columns, outer ones copied from its outer input's published vectors
  /// and inner ones read from the matched leaf rows; the Profiled and
  /// ContractChecked decorators forward their child's. A consumer passes this to
  /// RowBatchDecoder::DecodeMissing so each column is decoded at most once
  /// per pipeline. nullptr (the default) or a batch of 0 rows means
  /// nothing is published; any other batch holds exactly the count just
  /// returned (the ContractChecked decorator checks it). The returned
  /// batch is only valid for the rows of the producer's most recent
  /// NextBatch() return and is invalidated by the next pull.
  virtual const VectorBatch* BatchColumns() const { return nullptr; }

  virtual const Schema& output_schema() const = 0;

  /// The Table 2 module this operator's instruction footprint belongs to.
  virtual sim::ModuleId module_id() const = 0;

  /// Short label for plan printing, e.g. "Scan(lineitem)".
  virtual std::string label() const;

  /// The synthetic functions executed per unit of work. Includes per-query
  /// additions (aggregate functions, predicate evaluation); this is what the
  /// profiler's dynamic call graph observes and what the plan refiner sums.
  const std::vector<sim::FuncId>& hot_funcs() const { return hot_funcs_; }

  /// The synthetic functions executed per unit of work on the batch fast
  /// path. Operators whose NextBatch() runs compiled kernel programs instead
  /// of the tree-walking interpreter replace kExprArith/kExprCmp with the
  /// (smaller) kVectorEvalCore here, so the plan refiner sees the reduced
  /// per-tuple instruction working set when refining a batched plan. Falls
  /// back to hot_funcs() for operators without a vectorized path.
  const std::vector<sim::FuncId>& hot_funcs_batched() const {
    return batch_hot_funcs_.empty() ? hot_funcs_ : batch_hot_funcs_;
  }

  /// Whether this operator may use compiled kernel programs on its batch
  /// path (set by the planner from PlannerOptions::vectorize_expressions;
  /// defaults to on for hand-built plans).
  void set_vectorized_eval(bool v) { vectorized_eval_ = v; }

  // -- Plan-tree structure (used by the refiner and the printer). --
  size_t num_children() const { return children_.size(); }
  Operator* child(size_t i) const { return children_[i].get(); }
  std::unique_ptr<Operator> TakeChild(size_t i) {
    return std::move(children_[i]);
  }
  void SetChild(size_t i, std::unique_ptr<Operator> op) {
    children_[i] = std::move(op);
  }

  /// True if this operator fully consumes input `i` before producing its
  /// first output tuple (Sort, the build side of HashJoin, Materialize).
  /// Blocking operators "already buffer query execution below them" (§6).
  virtual bool BlocksInput(size_t i) const {
    (void)i;
    return false;
  }

  /// True if this operator drains input `i` the way a client drains the
  /// plan root: on its own, in batches at least as large as a Buffer's (an
  /// Exchange worker draining its fragment). The refiner puts no Buffer
  /// above such an input, as it puts none above the root (§5).
  virtual bool DrainsInputAsRoot(size_t i) const {
    (void)i;
    return false;
  }

  /// True for operators the refiner must never include in an execution
  /// group nor buffer above (e.g. the inner index scan of a foreign-key
  /// index nested-loop join, §6).
  bool excluded_from_buffering() const { return excluded_from_buffering_; }
  void set_excluded_from_buffering(bool v) { excluded_from_buffering_ = v; }

  /// Optimizer cardinality estimate for this operator's output; < 0 means
  /// unknown (treated as large by the refiner).
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

 protected:
  Operator() = default;

  void AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
  }

  /// Initializes hot_funcs_ from the module's base set; operators append
  /// query-specific functions afterwards.
  void InitHotFuncs(sim::ModuleId module) {
    hot_funcs_.clear();
    for (sim::FuncId f : sim::ModuleBaseFuncs(module)) hot_funcs_.push_back(f);
  }
  void AddHotFunc(sim::FuncId f) {
    for (sim::FuncId existing : hot_funcs_) {
      if (existing == f) return;
    }
    hot_funcs_.push_back(f);
  }

  /// Derives batch_hot_funcs_ from hot_funcs_ for an operator whose batch
  /// path runs compiled kernel programs: the interpreter footprints
  /// (kExprArith/kExprCmp) are replaced by kVectorEvalCore. Called after
  /// hot_funcs_ is final, by operators that successfully compiled their
  /// expressions.
  void SetVectorBatchFuncs() {
    batch_hot_funcs_.clear();
    for (sim::FuncId f : hot_funcs_) {
      if (f == sim::FuncId::kExprArith || f == sim::FuncId::kExprCmp) continue;
      batch_hot_funcs_.push_back(f);
    }
    batch_hot_funcs_.push_back(sim::FuncId::kVectorEvalCore);
  }

  ExecContext* ctx_ = nullptr;
  std::vector<sim::FuncId> hot_funcs_;
  std::vector<sim::FuncId> batch_hot_funcs_;
  bool vectorized_eval_ = true;

 private:
  std::vector<std::unique_ptr<Operator>> children_;
  bool excluded_from_buffering_ = false;
  double estimated_rows_ = -1.0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Runs a plan to completion (Open, drain, Close) and returns the produced
/// rows, or the error from Open or ctx->error. Convenience used by tests,
/// examples and benches.
Result<std::vector<const uint8_t*>> ExecutePlan(Operator* root,
                                                ExecContext* ctx);

/// Like ExecutePlan but drains the root through NextBatch() with batches of
/// `batch_size` rows — the batch-at-a-time fast path end to end.
Result<std::vector<const uint8_t*>> ExecutePlanBatched(
    Operator* root, ExecContext* ctx,
    size_t batch_size = Operator::kDefaultBatchSize);

/// Runs a plan and returns the produced rows as boxed values.
Result<std::vector<std::vector<Value>>> ExecutePlanRows(Operator* root,
                                                        ExecContext* ctx);

}  // namespace bufferdb

