#include "perf/query_profile.h"

#include <algorithm>
#include <cstdio>

#include "core/plan_refiner.h"

namespace bufferdb::perf {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendU64(std::string* out, const char* key, uint64_t v,
               bool trailing_comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(v),
                trailing_comma ? ", " : "");
  out->append(buf);
}

}  // namespace

QueryProfile::QueryProfile() {
  const PerfCounterGroup& group = ThreadCounterGroup();
  hw_available_ = group.available();
  unavailable_reason_ = group.unavailable_reason();
}

OperatorStats* QueryProfile::AddNode(const std::string& label,
                                     const std::string& module, int parent,
                                     int fragment) {
  OperatorStats& node = nodes_.emplace_back();
  node.id = static_cast<int>(nodes_.size()) - 1;
  node.parent = parent;
  node.fragment = fragment;
  node.label = label;
  node.module = module;
  if (parent >= 0 && parent < node.id) {
    nodes_[static_cast<size_t>(parent)].children.push_back(node.id);
  }
  return &node;
}

uint64_t QueryProfile::ExclusiveWallNs(int id) const {
  const OperatorStats& node = nodes_[static_cast<size_t>(id)];
  uint64_t excl = node.wall_ns;
  for (int c : node.children) {
    const OperatorStats& child = nodes_[static_cast<size_t>(c)];
    if (child.fragment != node.fragment) continue;  // Concurrent worker.
    excl = excl >= child.wall_ns ? excl - child.wall_ns : 0;
  }
  return excl;
}

HwCounters QueryProfile::ExclusiveHw(int id) const {
  const OperatorStats& node = nodes_[static_cast<size_t>(id)];
  HwCounters excl = node.hw;
  for (int c : node.children) {
    const OperatorStats& child = nodes_[static_cast<size_t>(c)];
    if (child.fragment != node.fragment) continue;
    excl = excl - child.hw;
  }
  return excl;
}

uint64_t QueryProfile::RootWallNs() const {
  for (const OperatorStats& n : nodes_) {
    if (n.parent == -1) return n.wall_ns;
  }
  return 0;
}

HwCounters QueryProfile::RootHw() const {
  for (const OperatorStats& n : nodes_) {
    if (n.parent == -1) return n.hw;
  }
  return HwCounters();
}

uint64_t QueryProfile::TotalAttributedWallNs() const {
  uint64_t total = 0;
  for (const OperatorStats& n : nodes_) total += ExclusiveWallNs(n.id);
  return total;
}

HwCounters QueryProfile::TotalAttributedHw() const {
  HwCounters total;
  for (const OperatorStats& n : nodes_) total += ExclusiveHw(n.id);
  return total;
}

void QueryProfile::AttributeGroups(const RefinementReport& report) {
  groups_.clear();
  std::vector<bool> consumed(nodes_.size(), false);
  for (const ExecutionGroup& group : report.groups) {
    GroupStats stats;
    stats.buffered = group.buffered;
    for (const std::string& label : group.op_labels) {
      if (!stats.name.empty()) stats.name += " + ";
      stats.name += label;
      for (const OperatorStats& node : nodes_) {
        size_t idx = static_cast<size_t>(node.id);
        if (consumed[idx] || node.label != label) continue;
        consumed[idx] = true;
        stats.wall_ns += ExclusiveWallNs(node.id);
        stats.hw += ExclusiveHw(node.id);
        break;
      }
    }
    groups_.push_back(std::move(stats));
  }
}

std::string QueryProfile::ToText() const {
  std::string out = "QueryProfile";
  if (hw_available_) {
    out += " (hw counters: on";
    if (!unavailable_reason_.empty()) {
      out += "; " + unavailable_reason_;
    }
    out += ")\n";
  } else {
    out += " (hw counters: UNAVAILABLE — " + unavailable_reason_ + ")\n";
  }
  char line[512];
  std::snprintf(line, sizeof(line), "%-52s %10s %10s %10s %10s %12s %12s %10s\n",
                "operator", "calls", "rows", "wall_ms", "excl_ms", "cycles",
                "instr", "l1i_miss");
  out += line;

  // Depth-first over the recorded tree; nodes_ preserves wrap order but the
  // children lists give the true structure.
  struct Frame {
    int id;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    if (it->parent == -1) stack.push_back({it->id, 0});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const OperatorStats& n = nodes_[static_cast<size_t>(f.id)];
    std::string name(static_cast<size_t>(f.depth) * 2, ' ');
    name += n.label;
    if (n.fragment >= 0 &&
        (n.parent < 0 ||
         nodes_[static_cast<size_t>(n.parent)].fragment != n.fragment)) {
      name += " [worker " + std::to_string(n.fragment) + "]";
    }
    HwCounters excl = ExclusiveHw(n.id);
    std::snprintf(line, sizeof(line),
                  "%-52s %10llu %10llu %10.3f %10.3f %12llu %12llu %10llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(n.next_calls + n.batch_calls),
                  static_cast<unsigned long long>(n.rows),
                  static_cast<double>(n.wall_ns) / 1e6,
                  static_cast<double>(ExclusiveWallNs(n.id)) / 1e6,
                  static_cast<unsigned long long>(excl.cycles),
                  static_cast<unsigned long long>(excl.instructions),
                  static_cast<unsigned long long>(excl.l1i_misses));
    out += line;
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, f.depth + 1});
    }
  }

  if (!groups_.empty()) {
    out += "execution groups:\n";
    for (const GroupStats& g : groups_) {
      HwCounters hw = g.hw;
      std::snprintf(line, sizeof(line),
                    "  %s[%s]  wall_ms=%.3f cycles=%llu l1i_miss=%llu\n",
                    g.buffered ? "buffered " : "", g.name.c_str(),
                    static_cast<double>(g.wall_ns) / 1e6,
                    static_cast<unsigned long long>(hw.cycles),
                    static_cast<unsigned long long>(hw.l1i_misses));
      out += line;
    }
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  out += "\"hw_available\": ";
  out += hw_available_ ? "true" : "false";
  out += ", \"unavailable_reason\": \"" + JsonEscape(unavailable_reason_) +
         "\", ";
  AppendU64(&out, "root_wall_ns", RootWallNs());
  AppendU64(&out, "total_attributed_wall_ns", TotalAttributedWallNs());
  out += "\"root_hw\": " + RootHw().ToJson() + ", ";
  out += "\"total_attributed_hw\": " + TotalAttributedHw().ToJson() + ", ";
  out += "\"nodes\": [";
  bool first = true;
  for (const OperatorStats& n : nodes_) {
    if (!first) out += ", ";
    first = false;
    out += "{";
    AppendU64(&out, "id", static_cast<uint64_t>(n.id));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"parent\": %d, \"fragment\": %d, ",
                  n.parent, n.fragment);
    out += buf;
    out += "\"label\": \"" + JsonEscape(n.label) + "\", ";
    out += "\"module\": \"" + JsonEscape(n.module) + "\", ";
    AppendU64(&out, "opens", n.opens);
    AppendU64(&out, "next_calls", n.next_calls);
    AppendU64(&out, "batch_calls", n.batch_calls);
    AppendU64(&out, "rows", n.rows);
    AppendU64(&out, "wall_ns", n.wall_ns);
    AppendU64(&out, "excl_wall_ns", ExclusiveWallNs(n.id));
    out += "\"hw\": " + n.hw.ToJson() + ", ";
    out += "\"hw_excl\": " + ExclusiveHw(n.id).ToJson();
    out += "}";
  }
  out += "], \"groups\": [";
  first = true;
  for (const GroupStats& g : groups_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + JsonEscape(g.name) + "\", \"buffered\": ";
    out += g.buffered ? "true" : "false";
    out += ", ";
    AppendU64(&out, "wall_ns", g.wall_ns);
    out += "\"hw\": " + g.hw.ToJson();
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace bufferdb::perf
