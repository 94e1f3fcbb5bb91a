#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/btree.h"
#include "storage/table.h"

namespace bufferdb {

/// A secondary (or primary) index over one int64/date column of a table.
struct IndexInfo {
  std::string name;
  Table* table = nullptr;
  int column = -1;
  bool unique = false;  // Declared unique (e.g. primary key).
  std::unique_ptr<BTree> btree;
  size_t rows = 0;  // Table rows when the B+-tree was built.
};

/// Name -> table/index registry for a database instance.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  [[nodiscard]] Status AddTable(std::unique_ptr<Table> table);
  Table* GetTable(const std::string& name) const;

  /// Builds a B+-tree over `column_name` of `table_name` (int64/date only).
  [[nodiscard]] Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::string& column_name, bool unique = false);

  /// First index on (table, column) that covers every row of the table, or
  /// nullptr. An index stops covering its table once rows are appended.
  const IndexInfo* FindIndex(const Table* table, int column) const;
  const IndexInfo* GetIndex(const std::string& name) const;

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<IndexInfo>> indexes_;
};

}  // namespace bufferdb

