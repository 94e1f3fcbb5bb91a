#include "exec/hash_aggregation.h"

#include <algorithm>

#include "common/prefetch.h"
#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

namespace {

// Group-key bytes (see AppendGroupKey). The appenders below produce the
// same bytes for a key whether it is read from a boxed Value or straight
// from a packed row.
void AppendKeyHeader(DataType type, bool is_null, std::string* out) {
  out->push_back(static_cast<char>(type));
  out->push_back(is_null ? 1 : 0);
}

void AppendKeyWord(const void* word, std::string* out) {
  out->append(static_cast<const char*>(word), 8);
}

void AppendKeyString(std::string_view s, std::string* out) {
  uint32_t n = static_cast<uint32_t>(s.size());
  out->append(reinterpret_cast<const char*>(&n), 4);
  out->append(s);
}

void AppendValueKey(const Value& v, std::string* out) {
  AppendKeyHeader(v.type(), v.is_null(), out);
  if (v.is_null()) return;
  if (v.type() == DataType::kString) {
    AppendKeyString(v.string_value(), out);
  } else if (v.type() == DataType::kDouble) {
    const double d = v.double_value();
    AppendKeyWord(&d, out);
  } else {
    const int64_t i = v.int64_value();
    AppendKeyWord(&i, out);
  }
}

// FNV-1a over the serialized key bytes.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void AppendGroupKey(const TupleView& view, size_t c, std::string* out) {
  const DataType type = view.schema().column(c).type;
  const bool is_null = view.IsNull(c);
  AppendKeyHeader(type, is_null, out);
  if (is_null) return;
  if (type == DataType::kString) {
    AppendKeyString(view.GetString(c), out);
  } else if (type == DataType::kDouble) {
    const double d = view.GetDouble(c);
    AppendKeyWord(&d, out);
  } else {
    // Bools normalized to 0/1, like Value::Bool.
    const int64_t i =
        type == DataType::kBool ? (view.GetBool(c) ? 1 : 0) : view.GetInt64(c);
    AppendKeyWord(&i, out);
  }
}

HashAggregationOperator::HashAggregationOperator(OperatorPtr child,
                                                 std::vector<GroupKeyExpr> groups,
                                                 std::vector<AggSpec> specs)
    : groups_(std::move(groups)), specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  const Schema& in_schema = this->child(0)->output_schema();
  std::vector<Column> cols;
  // Whether the batched load runs without the interpreter.
  bool compiled = true;
  for (GroupKeyExpr& g : groups_) {
    g.expr = FoldConstants(std::move(g.expr));
    cols.push_back(Column{g.output_name, g.expr->result_type()});
    const bool bare = g.expr->kind() == ExprKind::kColumnRef;
    key_cols_.push_back(
        bare ? static_cast<const ColumnRefExpr&>(*g.expr).column() : -1);
    key_compiled_.push_back(bare ? nullptr
                                 : CompiledExpr::Compile(*g.expr, in_schema));
    if (key_compiled_.back() != nullptr) {
      AddInputColumns(*key_compiled_.back(), &decode_cols_);
    }
    compiled = compiled && (bare || key_compiled_.back() != nullptr);
  }
  for (AggSpec& spec : specs_) {
    if (spec.arg != nullptr) spec.arg = FoldConstants(std::move(spec.arg));
    AppendAggFuncs(spec.func, &hot_funcs_);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(Column{spec.output_name, AggOutputType(spec.func, arg_type)});
    arg_compiled_.push_back(spec.arg != nullptr
                                ? CompiledExpr::Compile(*spec.arg, in_schema)
                                : nullptr);
    if (arg_compiled_.back() != nullptr) {
      AddInputColumns(*arg_compiled_.back(), &decode_cols_);
    }
    compiled =
        compiled && (spec.arg == nullptr || arg_compiled_.back() != nullptr);
  }
  output_schema_ = Schema(std::move(cols));
  if (compiled) SetVectorBatchFuncs();
  key_vecs_.assign(groups_.size(), nullptr);
}

Status HashAggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  buckets_.assign(1024, -1);
  entries_.clear();
  key_values_.clear();
  states_.clear();
  std::fill(key_vecs_.begin(), key_vecs_.end(), nullptr);
  emit_pos_ = 0;
  loaded_ = false;
  return child(0)->Open(ctx);
}

void HashAggregationOperator::Rehash() {
  buckets_.assign(buckets_.size() * 2, -1);
  const uint64_t mask = buckets_.size() - 1;
  for (int32_t i = 0; i < static_cast<int32_t>(entries_.size()); ++i) {
    int32_t* bucket = &buckets_[entries_[i].hash & mask];
    entries_[i].next = *bucket;
    *bucket = i;
  }
}

void HashAggregationOperator::SerializeKey(const TupleView& view, size_t lane,
                                           std::string* out) const {
  out->clear();
  for (size_t k = 0; k < groups_.size(); ++k) {
    if (key_cols_[k] >= 0) {
      AppendGroupKey(view, static_cast<size_t>(key_cols_[k]), out);
    } else if (key_vecs_[k] != nullptr) {
      AppendValueKey(LaneValue(*key_vecs_[k], lane), out);
    } else {
      AppendValueKey(groups_[k].expr->Evaluate(view), out);
    }
  }
}

Value HashAggregationOperator::KeyValue(size_t k, const TupleView& view,
                                        size_t lane) const {
  if (key_cols_[k] >= 0) {
    return view.GetValue(static_cast<size_t>(key_cols_[k]));
  }
  if (key_vecs_[k] != nullptr) return LaneValue(*key_vecs_[k], lane);
  return groups_[k].expr->Evaluate(view);
}

uint32_t HashAggregationOperator::FindOrCreateGroup(const std::string& key,
                                                    uint64_t hash,
                                                    const TupleView& view,
                                                    size_t lane) {
  int32_t* bucket = &buckets_[hash & (buckets_.size() - 1)];
  for (int32_t i = *bucket; i >= 0; i = entries_[i].next) {
    if (entries_[i].hash == hash && entries_[i].key == key) {
      return static_cast<uint32_t>(i);
    }
  }
  if (entries_.size() + 1 > buckets_.size() / 2) {
    Rehash();
    bucket = &buckets_[hash & (buckets_.size() - 1)];
  }
  entries_.push_back(Entry{hash, *bucket, key});
  for (size_t k = 0; k < groups_.size(); ++k) {
    key_values_.push_back(KeyValue(k, view, lane));
  }
  states_.resize(states_.size() + specs_.size());
  *bucket = static_cast<int32_t>(entries_.size() - 1);
  return static_cast<uint32_t>(*bucket);
}

void HashAggregationOperator::Load() {
  const Schema& in_schema = child(0)->output_schema();
  const size_t stride = specs_.size();
  std::string key;
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &in_schema);
    SerializeKey(view, 0, &key);
    const uint32_t g = FindOrCreateGroup(key, HashKey(key), view, 0);
    ctx_->Touch(&entries_[g], sizeof(Entry));
    AggAccumulator* states = states_.data() + g * stride;
    for (size_t a = 0; a < stride; ++a) {
      Value v = specs_[a].arg != nullptr ? specs_[a].arg->Evaluate(view)
                                         : Value();
      states[a].Update(specs_[a].func, v);
    }
  }
}

// Batch load, three steps per batch: (1) serialize and hash every lane's
// key, prefetching its bucket head; (2) resolve one group index per lane
// against buckets whose cache lines are already in flight; (3) fold each
// aggregate column-at-a-time into the flat groups x aggregates array. A
// rehash mid-batch only wastes the remaining prefetches.
void HashAggregationOperator::LoadBatched() {
  const Schema& in_schema = child(0)->output_schema();
  const size_t stride = specs_.size();
  const bool programs = vectorized_eval_;
  const std::vector<sim::FuncId>& funcs =
      programs ? hot_funcs_batched() : hot_funcs_;
  batch_rows_.resize(batch_size_);
  batch_keys_.resize(batch_size_);
  batch_hashes_.resize(batch_size_);
  batch_groups_.resize(batch_size_);
  while (size_t n = child(0)->NextBatch(batch_rows_.data(), batch_size_)) {
    if (programs) {
      // One decode of the union of input columns (aliasing what the child
      // published) feeds every key and argument program.
      RowBatchDecoder::DecodeMissing(batch_rows_.data(), n, in_schema,
                                     decode_cols_, child(0)->BatchColumns(),
                                     &vbatch_);
      for (size_t k = 0; k < key_compiled_.size(); ++k) {
        key_vecs_[k] =
            key_compiled_[k] != nullptr ? &key_compiled_[k]->Run(vbatch_) : nullptr;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      SerializeKey(TupleView(batch_rows_[i], &in_schema), i, &batch_keys_[i]);
      batch_hashes_[i] = HashKey(batch_keys_[i]);
      PrefetchRead(&buckets_[batch_hashes_[i] & (buckets_.size() - 1)]);
    }
    // By now the first lanes' bucket lines have arrived: read the heads and
    // prefetch the entries they chain to, overlapping the second dependent
    // miss of each lookup as well.
    for (size_t i = 0; i < n; ++i) {
      int32_t head = buckets_[batch_hashes_[i] & (buckets_.size() - 1)];
      if (head >= 0) PrefetchRead(&entries_[head]);
    }
    for (size_t i = 0; i < n; ++i) {
      ctx_->ExecModule(module_id(), funcs);
      batch_groups_[i] =
          FindOrCreateGroup(batch_keys_[i], batch_hashes_[i],
                            TupleView(batch_rows_[i], &in_schema), i);
      ctx_->Touch(&entries_[batch_groups_[i]], sizeof(Entry));
    }
    for (size_t a = 0; a < stride; ++a) {
      const AggSpec& spec = specs_[a];
      if (spec.arg == nullptr || (programs && arg_compiled_[a] != nullptr)) {
        const ColumnVector* col =
            spec.arg != nullptr ? &arg_compiled_[a]->Run(vbatch_) : nullptr;
        AggAccumulator::UpdateColumn(spec.func, col, n, batch_groups_.data(),
                                     stride, states_.data() + a);
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        // LINT: allow-scalar-eval(fallback: the argument did not compile)
        Value v = spec.arg->Evaluate(TupleView(batch_rows_[i], &in_schema));
        states_[batch_groups_[i] * stride + a].Update(spec.func, v);
      }
    }
  }
}

const uint8_t* HashAggregationOperator::Next() {
  if (!loaded_) {
    if (batch_size_ > 1) {
      LoadBatched();
    } else {
      Load();
    }
    loaded_ = true;
    emit_pos_ = 0;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (emit_pos_ >= entries_.size()) return nullptr;
  const size_t g = emit_pos_++;
  TupleBuilder builder(&output_schema_);
  size_t col = 0;
  for (size_t k = 0; k < groups_.size(); ++k) {
    builder.Set(col++, key_values_[g * groups_.size() + k]);
  }
  for (size_t a = 0; a < specs_.size(); ++a, ++col) {
    builder.Set(col, states_[g * specs_.size() + a].Final(
                         specs_[a].func, output_schema_.column(col).type));
  }
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  return out;
}

void HashAggregationOperator::Close() {
  buckets_.clear();
  entries_.clear();
  key_values_.clear();
  states_.clear();
  emit_pos_ = 0;
  loaded_ = false;
  child(0)->Close();
}

std::string HashAggregationOperator::label() const {
  std::string out = "HashAgg(by ";
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out += ",";
    out += groups_[i].output_name;
  }
  out += ")";
  return out;
}

}  // namespace bufferdb
