#include "catalog/catalog.h"

namespace bufferdb {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::CreateIndex(const std::string& index_name,
                            const std::string& table_name,
                            const std::string& column_name, bool unique) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index exists: " + index_name);
  }
  Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  int col = table->schema().FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("no such column: " + column_name);
  }
  DataType type = table->schema().column(col).type;
  if (type != DataType::kInt64 && type != DataType::kDate) {
    return Status::InvalidArgument("index column must be INT64 or DATE");
  }

  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->table = table;
  info->column = col;
  info->unique = unique;
  info->btree = std::make_unique<BTree>();
  info->rows = table->num_rows();
  for (const uint8_t* row : table->rows()) {
    TupleView v(row, &table->schema());
    if (v.IsNull(col)) continue;
    info->btree->Insert(v.GetInt64(col), row);
  }
  indexes_[index_name] = std::move(info);
  return Status::OK();
}

const IndexInfo* Catalog::FindIndex(const Table* table, int column) const {
  for (const auto& [name, info] : indexes_) {
    if (info->table == table && info->column == column &&
        info->rows == table->num_rows()) {
      return info.get();
    }
  }
  return nullptr;
}

const IndexInfo* Catalog::GetIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace bufferdb
