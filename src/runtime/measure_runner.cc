#include "runtime/measure_runner.h"

#include <algorithm>

#include "common/logging.h"

namespace tvmbo::runtime {

namespace {

bool is_timeout(const MeasureResult& result) {
  return result.error.rfind("timeout", 0) == 0;
}

}  // namespace

MeasureRunner::MeasureRunner(Device* device, MeasureRunnerOptions options,
                             ThreadPool* pool)
    : device_(device), options_(std::move(options)),
      pool_(pool != nullptr ? pool : &default_thread_pool()) {
  TVMBO_CHECK(device_ != nullptr) << "measure runner requires a device";
  TVMBO_CHECK_GE(options_.retry.max_retries, 0)
      << "max_retries must be non-negative";
}

MeasureRunner::~MeasureRunner() {
  // A trial running on the pool captures `this`; wait for it before the
  // members go away. Queued trials have not started and are dropped.
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_queue_.clear();
  async_cv_.wait(lock, [&] { return async_running_ == 0; });
}

void MeasureRunner::set_strategy(std::string strategy) {
  options_.strategy = std::move(strategy);
}

Json MeasureRunner::event(const char* name, std::size_t trial) const {
  Json e = Json::object();
  e.set("event", name);
  e.set("trial", trial);
  if (!options_.strategy.empty()) e.set("strategy", options_.strategy);
  return e;
}

void MeasureRunner::trace_proposed(const MeasureInput& input,
                                   std::size_t trial) {
  Json e = event("proposed", trial);
  e.set("workload", input.workload.id());
  Json tiles = Json::array();
  for (std::int64_t t : input.tiles) tiles.push_back(t);
  e.set("tiles", std::move(tiles));
  options_.trace->record(std::move(e));
}

MeasureResult MeasureRunner::attempt_once(const MeasureInput& input,
                                          const MeasureOption& option) {
  try {
    return device_->measure(input, option);
  } catch (const std::exception& e) {
    MeasureResult result;
    result.valid = false;
    result.error = e.what();
    return result;
  } catch (...) {
    MeasureResult result;
    result.valid = false;
    result.error = "unknown measurement error";
    return result;
  }
}

MeasureResult MeasureRunner::run_trial(const MeasureInput& input,
                                       const MeasureOption& option,
                                       std::size_t trial) {
  MeasureResult result;
  // Static pre-screen: a config the analyzer rejects never reaches the
  // device — the tuner sees an explicit invalid result (like a timeout)
  // after only an analysis pass, not a wasted worker.
  if (options_.prescreen && input.static_check) {
    std::string violation;
    try {
      violation = input.static_check();
    } catch (const std::exception& e) {
      violation = e.what();
    }
    if (!violation.empty()) {
      analysis_rejects_.fetch_add(1);
      result.valid = false;
      result.error = "analysis reject: " + violation;
      if (options_.trace != nullptr) {
        Json reject = event("analysis_reject", trial);
        reject.set("workload", input.workload.id());
        Json tiles = Json::array();
        for (std::int64_t t : input.tiles) tiles.push_back(t);
        reject.set("tiles", std::move(tiles));
        reject.set("rule", violation.substr(0, violation.find(':')));
        reject.set("error", result.error);
        options_.trace->record(std::move(reject));
        Json done = event("result", trial);
        done.set("valid", false);
        done.set("runtime_s", 0.0);
        done.set("compile_s", 0.0);
        done.set("energy_j", 0.0);
        done.set("cost_s", 0.0);
        done.set("error", result.error);
        options_.trace->record(std::move(done));
      }
      return result;
    }
  }
  const int attempts = 1 + options_.retry.max_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    result = attempt_once(input, option);
    if (options_.trace != nullptr) {
      Json compile = event("compile", trial);
      compile.set("attempt", attempt);
      compile.set("compile_s", result.compile_s);
      options_.trace->record(std::move(compile));
      Json run = event("run", trial);
      run.set("attempt", attempt);
      run.set("runtime_s", result.runtime_s);
      run.set("repeat", option.repeat);
      run.set("warmup", option.warmup);
      options_.trace->record(std::move(run));
    }
    if (result.valid) break;
    const bool retryable = is_timeout(result)
                               ? options_.retry.retry_timeouts
                               : options_.retry.retry_errors;
    if (!retryable || attempt + 1 >= attempts) break;
    if (options_.trace != nullptr) {
      Json retry = event("retry", trial);
      retry.set("attempt", attempt);
      retry.set("error", result.error);
      options_.trace->record(std::move(retry));
    }
  }
  if (options_.trace != nullptr) {
    Json done = event("result", trial);
    done.set("valid", result.valid);
    done.set("runtime_s", result.runtime_s);
    done.set("compile_s", result.compile_s);
    done.set("energy_j", result.energy_j);
    done.set("cost_s", result.evaluation_cost_s(option));
    if (!result.error.empty()) done.set("error", result.error);
    options_.trace->record(std::move(done));
  }
  return result;
}

std::vector<MeasureResult> MeasureRunner::measure_batch(
    std::span<const MeasureInput> inputs, const MeasureOption& option) {
  TVMBO_CHECK_EQ(in_flight(), 0u)
      << "measure_batch while streamed trials are in flight";
  std::vector<MeasureResult> results(inputs.size());
  const Ticket first = next_trial_.load();
  for (const MeasureInput& input : inputs) submit(input, option);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Completion completion = wait_any();
    results[completion.ticket - first] = std::move(completion.result);
  }
  return results;
}

MeasureResult MeasureRunner::measure_one(const MeasureInput& input,
                                         const MeasureOption& option) {
  return measure_batch({&input, 1}, option)[0];
}

std::size_t MeasureRunner::async_slots() const {
  if (!options_.parallel || pool_->in_worker_thread()) return 1;
  std::size_t limit = pool_->num_threads();
  const std::size_t device_limit = device_->max_concurrent_measurements();
  if (device_limit > 0) limit = std::min(limit, device_limit);
  return std::max<std::size_t>(1, limit);
}

std::size_t MeasureRunner::in_flight() const {
  std::lock_guard<std::mutex> lock(async_mutex_);
  return async_outstanding_;
}

MeasureResult MeasureRunner::run_job(const AsyncJob& job) {
  if (options_.trace != nullptr) {
    Json dispatch = event("dispatch", job.ticket);
    dispatch.set("workload", job.input.workload.id());
    options_.trace->record(std::move(dispatch));
  }
  MeasureResult result = run_trial(job.input, job.option, job.ticket);
  if (options_.trace != nullptr) {
    Json complete = event("complete", job.ticket);
    complete.set("valid", result.valid);
    if (!result.error.empty()) complete.set("error", result.error);
    options_.trace->record(std::move(complete));
  }
  return result;
}

void MeasureRunner::dispatch_ready_locked(std::size_t slots) {
  if (slots <= 1) return;  // wait_any() runs the queue inline
  while (async_running_ < slots && !async_queue_.empty()) {
    AsyncJob job = std::move(async_queue_.front());
    async_queue_.pop_front();
    ++async_running_;
    // The pool task owns the job; it reports back under the lock and
    // refills the slot it just freed, so no trial waits for a straggler.
    pool_->submit([this, slots, job = std::move(job)]() mutable {
      MeasureResult result = run_job(job);
      std::lock_guard<std::mutex> lock(async_mutex_);
      --async_running_;
      async_completed_.push_back({job.ticket, std::move(result)});
      dispatch_ready_locked(slots);
      // Notify under the lock: the destructor may tear the condvar down
      // the moment its predicate holds.
      async_cv_.notify_all();
    });
  }
}

MeasureRunner::Ticket MeasureRunner::submit(MeasureInput input,
                                            const MeasureOption& option) {
  const Ticket ticket = next_trial_.fetch_add(1);
  if (options_.trace != nullptr) trace_proposed(input, ticket);
  const std::size_t slots = async_slots();
  std::lock_guard<std::mutex> lock(async_mutex_);
  async_queue_.push_back({ticket, std::move(input), option});
  ++async_outstanding_;
  dispatch_ready_locked(slots);
  return ticket;
}

MeasureRunner::Completion MeasureRunner::wait_any() {
  std::unique_lock<std::mutex> lock(async_mutex_);
  TVMBO_CHECK_GT(async_outstanding_, 0u)
      << "wait_any with no trial in flight";
  while (async_completed_.empty()) {
    if (async_running_ > 0 || async_queue_.empty()) {
      async_cv_.wait(lock);
      continue;
    }
    // Nothing is running to deliver a completion (the one-slot mode):
    // run the oldest queued trial here, on the caller's thread.
    AsyncJob job = std::move(async_queue_.front());
    async_queue_.pop_front();
    ++async_running_;
    lock.unlock();
    MeasureResult result = run_job(job);
    lock.lock();
    --async_running_;
    async_completed_.push_back({job.ticket, std::move(result)});
  }
  Completion completion = std::move(async_completed_.front());
  async_completed_.pop_front();
  --async_outstanding_;
  return completion;
}

}  // namespace tvmbo::runtime
