#include "exec/hash_join.h"

#include <exception>
#include <string>

#include "common/prefetch.h"
#include "expr/evaluator.h"
#include "parallel/shared_join_build.h"
#include "storage/tuple.h"

namespace bufferdb {

namespace {

// Keys flow through Value::int64_value(), so only programs whose result
// lives in the int64 payload array qualify (a double key would already be
// a type error in the interpreter path).
std::unique_ptr<CompiledExpr> CompileKey(const Expression& key,
                                         const Schema& schema) {
  auto program = CompiledExpr::Compile(key, schema);
  if (program != nullptr && program->result_type() == DataType::kDouble) {
    return nullptr;
  }
  return program;
}

}  // namespace

void JoinHashTable::Link(const std::vector<std::vector<Entry>>& runs) {
  size_t n = 0;
  for (const std::vector<Entry>& run : runs) n += run.size();
  size_t capacity = 1024;
  while (capacity < 2 * n) capacity <<= 1;
  buckets.assign(capacity, -1);
  nodes.clear();
  nodes.reserve(n);
  for (const std::vector<Entry>& run : runs) {
    for (const Entry& e : run) {
      int32_t& head = buckets[Slot(e.key)];
      nodes.push_back(Node{e.key, e.row, head});
      head = static_cast<int32_t>(nodes.size() - 1);
    }
  }
}

HashJoinOperator::HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                                   ExprPtr probe_key, ExprPtr build_key,
                                   ExprPtr residual_predicate,
                                   std::vector<int> columns)
    : probe_key_(FoldConstants(std::move(probe_key))),
      build_key_(FoldConstants(std::move(build_key))),
      residual_predicate_(residual_predicate == nullptr
                              ? nullptr
                              : FoldConstants(std::move(residual_predicate))),
      columns_(std::move(columns)) {
  output_schema_ = Schema::Concat(probe->output_schema(),
                                  build->output_schema(), columns_);
  AddChild(std::move(probe));
  AddChild(std::move(build));
  InitHotFuncs(module_id());
  if (residual_predicate_ != nullptr) AddHotFunc(sim::FuncId::kExprArith);
  for (sim::FuncId f : sim::ModuleBaseFuncs(sim::ModuleId::kHashJoinBuild)) {
    build_funcs_.push_back(f);
  }
  probe_compiled_ = CompileKey(*probe_key_, child(0)->output_schema());
  build_compiled_ = CompileKey(*build_key_, child(1)->output_schema());
  if (probe_compiled_ != nullptr) {
    SetVectorBatchFuncs();
    // The residual predicate still runs on the interpreter, per match.
    if (residual_predicate_ != nullptr) {
      batch_hot_funcs_.push_back(sim::FuncId::kExprArith);
    }
  }
  build_batch_funcs_ = build_funcs_;
  if (build_compiled_ != nullptr) {
    build_batch_funcs_.push_back(sim::FuncId::kVectorEvalCore);
  }
}

void HashJoinOperator::InsertBuildRow(int64_t key, const uint8_t* row) {
  JoinHashTable& t = own_table_;
  if (t.nodes.size() + 1 > t.buckets.size() / 2) {
    // Rehash into a table twice the size.
    std::vector<int32_t> old = std::move(t.buckets);
    t.buckets.assign(old.size() * 2, -1);
    for (int32_t i = 0; i < static_cast<int32_t>(t.nodes.size()); ++i) {
      int32_t* bucket = &t.buckets[t.Slot(t.nodes[i].key)];
      t.nodes[i].next = *bucket;
      *bucket = i;
    }
  }
  int32_t* bucket = &t.buckets[t.Slot(key)];
  t.nodes.push_back(Node{key, row, *bucket});
  *bucket = static_cast<int32_t>(t.nodes.size() - 1);
  ctx_->Touch(bucket, sizeof(int32_t));
  ctx_->Touch(&t.nodes.back(), sizeof(Node));
}

// Whole batches with the compiled key program on the batch path; row at a
// time through the interpreter otherwise.
template <typename Sink>
void HashJoinOperator::DrainBuild(Sink sink) {
  const Schema& build_schema = child(1)->output_schema();
  if (probe_batch_size_ > 1 && build_compiled_ != nullptr &&
      vectorized_eval_) {
    build_rows_.resize(kDefaultBatchSize);
    build_keys_.resize(kDefaultBatchSize);
    build_valid_.resize(kDefaultBatchSize);
    for (;;) {
      size_t n = child(1)->NextBatch(build_rows_.data(), build_rows_.size());
      if (n == 0) break;
      EvaluateJoinKeys(build_compiled_.get(), *build_key_, build_rows_.data(),
                       n, build_schema, child(1)->BatchColumns(),
                       &build_vbatch_, build_keys_.data(), build_valid_.data());
      for (size_t i = 0; i < n; ++i) {
        ctx_->ExecModule(sim::ModuleId::kHashJoinBuild, build_batch_funcs_);
        if (build_valid_[i] == 0) continue;  // NULL keys never match.
        sink(build_keys_[i], build_rows_[i]);
      }
    }
  } else {
    while (const uint8_t* row = child(1)->Next()) {
      ctx_->ExecModule(sim::ModuleId::kHashJoinBuild, build_funcs_);
      TupleView view(row, &build_schema);
      Value key = build_key_->Evaluate(view);
      if (key.is_null()) continue;  // NULL keys never match.
      sink(key.int64_value(), row);
    }
  }
}

// Registered builders drain their morsels into a private run and hand it
// in, errors and exceptions included, so no waiter is left stranded. A
// clone that starts after the table is complete skips straight to it.
Status HashJoinOperator::BuildShared() {
  if (shared_->Register()) {
    std::vector<JoinHashTable::Entry> run;
    Status status = Status::OK();
    try {
      DrainBuild([&run](int64_t key, const uint8_t* row) {
        run.push_back(JoinHashTable::Entry{key, row});
      });
      // A build input that hit an error ended its stream early.
      status = ctx_->error;
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("hash join build threw: ") +
                                e.what());
    } catch (...) {
      status = Status::Internal("hash join build threw");
    }
    shared_->HandIn(std::move(run), std::move(status));
  }
  return shared_->Wait();
}

Status HashJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  BUFFERDB_RETURN_IF_ERROR(child(1)->Open(ctx));
  probe_row_ = nullptr;
  chain_ = -1;
  probe_pos_ = 0;
  probe_count_ = 0;
  probe_eof_ = false;
  if (probe_batch_size_ > 1) {
    probe_rows_.resize(probe_batch_size_);
    probe_keys_.resize(probe_batch_size_);
    probe_buckets_.resize(probe_batch_size_);
    probe_chains_.resize(probe_batch_size_);
    probe_valid_.resize(probe_batch_size_);
  }

  if (shared_ != nullptr) {
    table_ = &shared_->table();
    return BuildShared();
  }
  if (!built_) {
    // Size the table to a power of two >= 2x the build cardinality when
    // known; grow-by-rehash otherwise.
    size_t capacity = 1024;
    double est = child(1)->estimated_rows();
    if (est > 0) {
      while (capacity < 2 * static_cast<size_t>(est)) capacity <<= 1;
    }
    own_table_.buckets.assign(capacity, -1);
    DrainBuild(
        [this](int64_t key, const uint8_t* row) { InsertBuildRow(key, row); });
    built_ = true;
  }
  return Status::OK();
}

// Pulls one batch of probe rows, evaluates their keys and resolves their
// bucket heads in two passes: pass 1 hashes and prefetches every row's
// bucket; pass 2 reads the (now in-flight) bucket heads and prefetches the
// first chain node. By the time the caller walks a row's chain, its cache
// lines are en route — the misses of up to `probe_batch_size_` independent
// probes overlap instead of paying a full DRAM round-trip each.
void HashJoinOperator::FetchProbeBatch() {
  const Schema& probe_schema = child(0)->output_schema();
  probe_pos_ = 0;
  probe_count_ = child(0)->NextBatch(probe_rows_.data(), probe_batch_size_);
  if (probe_count_ == 0) {
    probe_eof_ = true;
    return;
  }
  const std::vector<int32_t>& buckets = table_->buckets;
  const uint64_t mask = buckets.size() - 1;
  EvaluateJoinKeys(vectorized_eval_ ? probe_compiled_.get() : nullptr,
                   *probe_key_, probe_rows_.data(), probe_count_,
                   probe_schema, child(0)->BatchColumns(), &probe_vbatch_,
                   probe_keys_.data(), probe_valid_.data());
  for (size_t i = 0; i < probe_count_; ++i) {
    if (probe_valid_[i] == 0) continue;
    uint64_t b = SplitMix64(static_cast<uint64_t>(probe_keys_[i])) & mask;
    probe_buckets_[i] = b;
    PrefetchRead(&buckets[b]);
  }
  for (size_t i = 0; i < probe_count_; ++i) {
    if (!probe_valid_[i]) {
      probe_chains_[i] = -1;
      continue;
    }
    int32_t head = buckets[probe_buckets_[i]];
    ctx_->Touch(&buckets[probe_buckets_[i]], sizeof(int32_t));
    if (head >= 0) PrefetchRead(&table_->nodes[head]);
    probe_chains_[i] = head;
  }
}

const uint8_t* HashJoinOperator::Next() {
  const Schema& probe_schema = child(0)->output_schema();
  const Schema& build_schema = child(1)->output_schema();
  while (true) {
    // Walk the current chain for further matches.
    while (chain_ >= 0) {
      const Node& node = table_->nodes[chain_];
      ctx_->Touch(&node, sizeof(Node));
      chain_ = node.next;
      if (node.key != probe_key_value_) continue;
      ctx_->ExecModule(module_id(), hot_funcs_);
      const uint8_t* combined = TupleBuilder::ConcatRows(
          output_schema_, probe_schema, probe_row_, build_schema, node.row,
          &ctx_->arena, columns_);
      TupleView view(combined, &output_schema_);
      ctx_->Touch(combined, view.size_bytes());
      if (residual_predicate_ == nullptr ||
          EvaluatePredicate(*residual_predicate_, view)) {
        return combined;
      }
    }
    if (probe_batch_size_ > 1) {
      // Batched probe: serve the precomputed rows of the current batch.
      if (probe_pos_ >= probe_count_) {
        if (!probe_eof_) FetchProbeBatch();
        if (probe_count_ == 0 || probe_pos_ >= probe_count_) {
          ctx_->ExecModule(module_id(), hot_funcs_batched());
          return nullptr;
        }
      }
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      size_t i = probe_pos_++;
      if (!probe_valid_[i]) continue;
      probe_row_ = probe_rows_[i];
      probe_key_value_ = probe_keys_[i];
      chain_ = probe_chains_[i];
      continue;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    probe_row_ = child(0)->Next();
    if (probe_row_ == nullptr) return nullptr;
    TupleView view(probe_row_, &probe_schema);
    Value key = probe_key_->Evaluate(view);
    if (key.is_null()) continue;
    probe_key_value_ = key.int64_value();
    const int32_t* bucket = &table_->buckets[table_->Slot(probe_key_value_)];
    ctx_->Touch(bucket, sizeof(int32_t));
    chain_ = *bucket;
  }
}

void HashJoinOperator::Close() {
  // A shared table stays intact for the other clones; its Exchange resets
  // it before the next run.
  own_table_.Clear();
  built_ = false;
  chain_ = -1;
  child(0)->Close();
  child(1)->Close();
}

}  // namespace bufferdb
