#include "plan/plan_printer.h"

#include <cstdio>

#include "core/buffer_operator.h"
#include "core/execution_group.h"

namespace bufferdb {

namespace {

void PrintRec(const Operator& op, int depth, bool show_footprints,
              std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += op.label();
  while (line.size() < 44) line += ' ';
  char buf[96];
  if (op.estimated_rows() >= 0) {
    std::snprintf(buf, sizeof(buf), " rows=%-10.0f", op.estimated_rows());
    line += buf;
  }
  if (show_footprints) {
    FuncSet funcs;
    funcs.AddAll(op.hot_funcs());
    std::snprintf(buf, sizeof(buf), " footprint=%.1fK",
                  static_cast<double>(funcs.TotalBytes()) / 1000.0);
    line += buf;
  }
  if (const auto* buffer = dynamic_cast<const BufferOperator*>(&op)) {
    std::snprintf(buf, sizeof(buf), " capacity=%zu", buffer->buffer_size());
    line += buf;
  }
  if (op.excluded_from_buffering()) line += " [no-buffer]";
  out->append(line);
  out->push_back('\n');
  for (size_t i = 0; i < op.num_children(); ++i) {
    PrintRec(*op.child(i), depth + 1, show_footprints, out);
  }
}

}  // namespace

std::string PrintPlan(const Operator& root, bool show_footprints) {
  std::string out;
  PrintRec(root, 0, show_footprints, &out);
  return out;
}

}  // namespace bufferdb
