#include "core/execution_group.h"

namespace bufferdb {

uint64_t FuncSet::TotalBytes() const {
  const sim::CodeLayout& layout = sim::CodeLayout::Default();
  uint64_t total = 0;
  for (int i = 0; i < sim::kNumFuncIds; ++i) {
    if (bits_.test(i)) {
      total += layout.info(static_cast<sim::FuncId>(i)).size_bytes;
    }
  }
  return total;
}

std::vector<sim::FuncId> FuncSet::ToVector() const {
  std::vector<sim::FuncId> out;
  for (int i = 0; i < sim::kNumFuncIds; ++i) {
    if (bits_.test(i)) out.push_back(static_cast<sim::FuncId>(i));
  }
  return out;
}

std::string ExecutionGroup::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < op_labels.size(); ++i) {
    if (i > 0) out += " + ";
    out += op_labels[i];
  }
  // Append-form to dodge gcc 12's -O3 -Wrestrict false positive (PR105651).
  out += "] footprint=";
  out += std::to_string(funcs.TotalBytes());
  out += "B";
  if (buffered) out += " (buffered)";
  return out;
}

}  // namespace bufferdb
