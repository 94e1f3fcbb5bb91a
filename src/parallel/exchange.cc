#include "parallel/exchange.h"

#include <cstring>

namespace bufferdb::parallel {

ExchangeOperator::ExchangeOperator(
    std::vector<OperatorPtr> fragments, std::unique_ptr<MorselCursor> cursor,
    std::vector<std::unique_ptr<SharedJoinBuild>> builds, ThreadPool* pool,
    size_t batch_rows, size_t queue_batches)
    : cursor_(std::move(cursor)),
      builds_(std::move(builds)),
      pool_(pool != nullptr ? pool : &ThreadPool::Global()),
      batch_rows_(batch_rows == 0 ? kDefaultBatchRows : batch_rows),
      queue_batches_(queue_batches == 0 ? kDefaultQueueBatches
                                        : queue_batches) {
  for (OperatorPtr& fragment : fragments) AddChild(std::move(fragment));
  InitHotFuncs(sim::ModuleId::kBuffer);
  // Group boundary for the plan refiner: buffers go *inside* the fragments
  // (per worker), never above the Exchange or merged with its parents.
  set_excluded_from_buffering(true);
}

ExchangeOperator::~ExchangeOperator() {
  if (queue_ != nullptr) queue_->Cancel();
  JoinWorkers();
}

void ExchangeOperator::EnableFragmentSimulation(const sim::SimConfig& config) {
  simulate_fragments_ = true;
  fragment_sim_config_ = config;
}

Status ExchangeOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  if (queue_ != nullptr) queue_->Cancel();
  JoinWorkers();
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error_ = Status::OK();
  }

  // Fresh per-fragment contexts; the previous run's arenas are released
  // here, not in Close (drained row pointers stay valid until re-Open).
  fragment_ctxs_.clear();
  fragment_cpus_.clear();
  current_.clear();
  current_pos_ = 0;
  if (cursor_ != nullptr) cursor_->Reset();
  for (std::unique_ptr<SharedJoinBuild>& build : builds_) build->Reset();
  queue_ = std::make_unique<TupleQueue>(queue_batches_);

  size_t n = num_children();
  for (size_t i = 0; i < n; ++i) {
    auto fctx = std::make_unique<ExecContext>();
    if (simulate_fragments_) {
      fragment_cpus_.push_back(
          std::make_unique<sim::SimCpu>(fragment_sim_config_));
      fctx->cpu = fragment_cpus_.back().get();
    }
    fragment_ctxs_.push_back(std::move(fctx));
  }
  // Register every producer before the first task runs, so the consumer
  // cannot observe producers_ == 0 while workers are still being launched.
  for (size_t i = 0; i < n; ++i) queue_->AddProducer();
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(pool_->Submit([this, i] { RunFragment(i); }));
  }
  return Status::OK();
}

void ExchangeOperator::RunFragment(size_t index) {
  TupleQueue* queue = queue_.get();
  Operator* fragment = child(index);
  bool opened = false;
  try {
    Status st = fragment->Open(fragment_ctxs_[index].get());
    if (!st.ok()) {
      RecordError(std::move(st));
    } else {
      opened = true;
      bool draining = true;
      while (draining) {
        // Drain the fragment through NextBatch straight into the batch
        // that gets pushed.
        TupleQueue::Batch batch(batch_rows_);
        size_t filled = 0;
        while (filled < batch_rows_) {
          size_t n = fragment->NextBatch(batch.data() + filled,
                                         batch_rows_ - filled);
          if (n == 0) {
            draining = false;
            break;
          }
          filled += n;
        }
        if (filled == 0) break;
        batch.resize(filled);
        if (!queue->Push(std::move(batch))) break;  // Consumer went away.
      }
      // An operator that could not return its error ended the stream early.
      if (!fragment_ctxs_[index]->error.ok()) {
        RecordError(fragment_ctxs_[index]->error);
      }
    }
  } catch (const std::exception& e) {
    RecordError(Status::Internal(std::string("worker fragment threw: ") +
                                 e.what()));
  } catch (...) {
    RecordError(Status::Internal("worker fragment threw"));
  }
  if (opened) {
    try {
      fragment->Close();
    } catch (...) {
      RecordError(Status::Internal("worker fragment Close threw"));
    }
  }
  queue->ProducerDone();
}

bool ExchangeOperator::PopBatch() {
  current_.clear();
  current_pos_ = 0;
  // One merge-module execution per batch: the consumer-side cost of the
  // Exchange is amortized across the batch, like a buffer refill. The end
  // of the stream costs one more.
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (queue_ != nullptr && queue_->Pop(&current_)) return true;
  // Every worker has finished, so any error one raised is recorded.
  ctx_->RecordError(error());
  return false;
}

const uint8_t* ExchangeOperator::Next() {
  while (current_pos_ >= current_.size()) {
    if (!PopBatch()) return nullptr;
  }
  return current_[current_pos_++];
}

size_t ExchangeOperator::NextBatch(const uint8_t** out, size_t max) {
  while (current_pos_ >= current_.size()) {
    if (!PopBatch()) return 0;
  }
  size_t n = current_.size() - current_pos_;
  if (n > max) n = max;
  std::memcpy(out, current_.data() + current_pos_, n * sizeof(const uint8_t*));
  current_pos_ += n;
  return n;
}

void ExchangeOperator::Close() {
  if (queue_ != nullptr) queue_->Cancel();
  JoinWorkers();
  current_.clear();
  current_pos_ = 0;
}

Status ExchangeOperator::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void ExchangeOperator::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) error_ = std::move(status);
}

void ExchangeOperator::JoinWorkers() {
  for (std::future<void>& worker : workers_) {
    if (worker.valid()) worker.wait();
  }
  workers_.clear();
}

std::string ExchangeOperator::label() const {
  std::string out = "Exchange(degree=" + std::to_string(num_children());
  if (cursor_ != nullptr) {
    // Append-form to dodge gcc 12's -O3 -Wrestrict false positive
    // (PR105651).
    out += ", morsel=";
    out += std::to_string(cursor_->morsel_rows());
  }
  out += ")";
  return out;
}

}  // namespace bufferdb::parallel
