#include "core/plan_refiner.h"

#include <cstdio>

namespace bufferdb {

std::string RefinementReport::ToString() const {
  std::string out = "execution groups (" + std::to_string(groups.size()) +
                    "), buffers added: " + std::to_string(buffers_added) + "\n";
  for (const ExecutionGroup& g : groups) {
    // Append-form to dodge gcc 12's -O3 -Wrestrict false positive
    // (PR105651).
    out += "  ";
    out += g.ToString();
    out += "\n";
  }
  return out;
}

bool PlanRefiner::Eligible(const Operator& op) const {
  if (op.excluded_from_buffering()) return false;
  // Pipeline breakers already buffer execution below them and are never
  // part of an execution group (§6).
  if (op.num_children() == 1 && op.BlocksInput(0)) return false;
  return true;
}

void PlanRefiner::LeaveUnbuffered(OpenGroup group, RefinementReport* report) {
  if (report != nullptr) {
    report->groups.push_back(ExecutionGroup{std::move(group.op_labels),
                                            group.funcs,
                                            /*buffered=*/false});
  }
}

OperatorPtr PlanRefiner::CloseGroup(OperatorPtr group_top, OpenGroup group,
                                    RefinementReport* report) {
  // A batch-draining parent already runs its child a batch at a time, the
  // interleaving a Buffer creates; a Buffer there would only copy pointers
  // and hide the child's published columns (DESIGN.md §8). Otherwise the
  // cardinality rule (§6, §7.3): buffering only pays off when the group is
  // invoked often enough. Unknown estimates are treated as large.
  const bool profitable =
      options_.batch_size <= 1 &&
      (group.output_rows < 0 ||
       group.output_rows >= options_.cardinality_threshold);
  if (!profitable) {
    LeaveUnbuffered(std::move(group), report);
    return group_top;
  }
  auto buffer = std::make_unique<BufferOperator>(std::move(group_top),
                                                 options_.buffer_size);
  buffer->set_estimated_rows(group.output_rows);
  if (report != nullptr) {
    ++report->buffers_added;
    report->groups.push_back(
        ExecutionGroup{std::move(group.op_labels), group.funcs, /*buffered=*/true});
  }
  return buffer;
}

PlanRefiner::RecResult PlanRefiner::RefineRec(OperatorPtr op,
                                              RefinementReport* report) {
  // Refine children first (bottom-up pass).
  size_t n = op->num_children();
  std::vector<std::optional<OpenGroup>> child_open(n);
  for (size_t i = 0; i < n; ++i) {
    RecResult r = RefineRec(op->TakeChild(i), report);
    op->SetChild(i, std::move(r.op));
    child_open[i] = std::move(r.open);
  }

  if (!Eligible(*op)) {
    // This operator is a group boundary: close every open child group by
    // inserting a buffer above it, except above an input the operator
    // drains like a plan root (an Exchange's fragments; see Refine).
    for (size_t i = 0; i < n; ++i) {
      if (!child_open[i].has_value()) continue;
      if (op->DrainsInputAsRoot(i)) {
        LeaveUnbuffered(std::move(*child_open[i]), report);
      } else {
        op->SetChild(i, CloseGroup(op->TakeChild(i),
                                   std::move(*child_open[i]), report));
      }
    }
    return RecResult{std::move(op), std::nullopt};
  }

  // Try to enlarge the children's open groups with this operator.
  if (options_.merge_execution_groups) {
    FuncSet merged;
    // Batched plans run compiled kernel programs where available, so the
    // instruction working set the refiner must pack into L1-I is the
    // (smaller) batched one.
    merged.AddAll(options_.batch_size > 1 ? op->hot_funcs_batched()
                                          : op->hot_funcs());
    if (options_.assume_static_footprints) {
      merged.AddAll(sim::StaticOnlyFuncs());
    }
    merged.UnionWith(buffer_funcs_);
    for (size_t i = 0; i < n; ++i) {
      if (child_open[i].has_value()) merged.UnionWith(child_open[i]->funcs);
    }
    if (merged.TotalBytes() <= options_.l1i_capacity_bytes) {
      OpenGroup group;
      group.funcs = merged;
      for (size_t i = 0; i < n; ++i) {
        if (child_open[i].has_value()) {
          for (std::string& label : child_open[i]->op_labels) {
            group.op_labels.push_back(std::move(label));
          }
        }
      }
      group.op_labels.push_back(op->label());
      group.output_rows = op->estimated_rows();
      return RecResult{std::move(op), std::move(group)};
    }
  }

  // Too large to merge (or merging disabled): close the child groups and
  // start a fresh group at this operator.
  for (size_t i = 0; i < n; ++i) {
    if (child_open[i].has_value()) {
      op->SetChild(
          i, CloseGroup(op->TakeChild(i), std::move(*child_open[i]), report));
    }
  }
  OpenGroup group;
  group.funcs.AddAll(options_.batch_size > 1 ? op->hot_funcs_batched()
                                             : op->hot_funcs());
  if (options_.assume_static_footprints) {
    group.funcs.AddAll(sim::StaticOnlyFuncs());
  }
  group.funcs.UnionWith(buffer_funcs_);
  group.op_labels.push_back(op->label());
  group.output_rows = op->estimated_rows();
  return RecResult{std::move(op), std::move(group)};
}

OperatorPtr PlanRefiner::Refine(OperatorPtr root, RefinementReport* report) {
  RecResult r = RefineRec(std::move(root), report);
  // The top group's output is sent to the client directly; no buffer above
  // it (§5: "There is no need to put another buffer operator above the top
  // operator").
  if (r.open.has_value()) LeaveUnbuffered(std::move(*r.open), report);
  return std::move(r.op);
}

}  // namespace bufferdb
