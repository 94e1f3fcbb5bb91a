#include "exec/operator.h"

#include "storage/tuple.h"

namespace bufferdb {

Status Operator::Rescan() {
  Close();
  return Open(ctx_);
}

size_t Operator::NextBatch(const uint8_t** out, size_t max) {
  size_t n = 0;
  while (n < max) {
    const uint8_t* row = Next();
    if (row == nullptr) break;
    out[n++] = row;
  }
  return n;
}

std::string Operator::label() const {
  return sim::ModuleName(module_id());
}

Result<std::vector<const uint8_t*>> ExecutePlan(Operator* root,
                                                ExecContext* ctx) {
  BUFFERDB_RETURN_IF_ERROR(root->Open(ctx));
  std::vector<const uint8_t*> rows;
  while (const uint8_t* row = root->Next()) {
    rows.push_back(row);
  }
  root->Close();
  BUFFERDB_RETURN_IF_ERROR(ctx->error);
  return rows;
}

Result<std::vector<const uint8_t*>> ExecutePlanBatched(Operator* root,
                                                       ExecContext* ctx,
                                                       size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  BUFFERDB_RETURN_IF_ERROR(root->Open(ctx));
  std::vector<const uint8_t*> rows;
  std::vector<const uint8_t*> batch(batch_size);
  while (size_t n = root->NextBatch(batch.data(), batch_size)) {
    rows.insert(rows.end(), batch.begin(), batch.begin() + n);
  }
  root->Close();
  BUFFERDB_RETURN_IF_ERROR(ctx->error);
  return rows;
}

Result<std::vector<std::vector<Value>>> ExecutePlanRows(Operator* root,
                                                        ExecContext* ctx) {
  BUFFERDB_ASSIGN_OR_RETURN(rows, ExecutePlan(root, ctx));
  const Schema& schema = root->output_schema();
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (const uint8_t* row : rows) {
    TupleView view(row, &schema);
    std::vector<Value> values;
    values.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(view.GetValue(c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

}  // namespace bufferdb
