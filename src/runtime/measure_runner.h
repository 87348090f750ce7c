// MeasureRunner: the one measurement engine behind every search
// strategy's Step 3–5 loop (compile -> execute -> report).
//
// The engine is a completion-driven queue: submit(input) -> ticket,
// wait_any() -> (ticket, result). Up to async_slots() trials run at once
// and each slot is refilled the moment it frees, so one straggling trial
// never idles the others. measure_batch() is the same queue used as a
// barrier: submit every input, collect every completion, return the
// results in submission order. Every trial gets
//
//  * per-trial fault isolation — an exception (or timeout) in one trial
//    yields an invalid MeasureResult for that trial instead of poisoning
//    the batch or unwinding the tuning loop;
//  * a configurable retry policy for transiently-failing trials;
//  * an optional static pre-screen that rejects a config before it
//    reaches the device;
//  * an optional JSON-lines trace (trace_log.h) recording proposed /
//    dispatch / compile / run / retry / result / complete per trial with
//    strategy attribution.
//
// async_slots() is the one concurrency rule: min of the pool width and
// Device::max_concurrent_measurements(), and 1 when the runner is not
// parallel, the device is stateful (SwingSimDevice's jitter RNG reports
// 1), or the caller is itself a pool worker (a nested dispatch would
// block a worker on its own queue). With one slot the trials run inline
// on the calling thread, inside wait_any(), in submission order — the
// fixed-seed determinism mode that keeps the paper-figure CSVs
// bit-identical whether or not --parallel is set. With more slots they
// run on the shared ThreadPool and complete in whatever order the device
// delivers. One driver thread at a time submits and collects.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/measure.h"
#include "runtime/trace_log.h"

namespace tvmbo::runtime {

/// When to re-run a failed trial. A retry replaces the failed attempt's
/// result; the last attempt's result is reported either way.
struct RetryPolicy {
  int max_retries = 0;          ///< extra attempts per trial after the first
  bool retry_errors = true;     ///< retry thrown / invalid measurements
  bool retry_timeouts = false;  ///< timeouts are usually persistent
};

struct MeasureRunnerOptions {
  /// Run trials concurrently on the thread pool (see the header comment
  /// for the one-slot determinism contract).
  bool parallel = false;
  /// Run MeasureInput::static_check before dispatching each trial; a
  /// violation yields an invalid result ("analysis reject: rule: ...",
  /// tuner-visible like a timeout) and an `analysis_reject` trace event
  /// without ever spending a device/worker on the config.
  bool prescreen = false;
  RetryPolicy retry;
  /// Optional JSON-lines event log (not owned; may be null).
  TraceLog* trace = nullptr;
  /// Strategy attribution stamped on every trace event.
  std::string strategy;
};

class MeasureRunner {
 public:
  /// Identifies one streamed trial from submit() to its wait_any()
  /// completion (also the trial id stamped on its trace events).
  using Ticket = std::size_t;

  /// One completed streamed trial.
  struct Completion {
    Ticket ticket = 0;
    MeasureResult result;
  };

  /// The device (and trace log, when set) must outlive the runner. A null
  /// pool means the process-wide default pool.
  explicit MeasureRunner(Device* device, MeasureRunnerOptions options = {},
                         ThreadPool* pool = nullptr);
  /// Waits for trials already running on the pool (their results are
  /// discarded); queued trials that never started are dropped.
  ~MeasureRunner();

  /// Submits every input and collects every completion; results[i]
  /// always corresponds to inputs[i]. Never throws for per-trial
  /// failures: a trial that throws or times out is reported as an
  /// invalid MeasureResult carrying its error. CheckError while streamed
  /// trials are in flight.
  std::vector<MeasureResult> measure_batch(
      std::span<const MeasureInput> inputs, const MeasureOption& option);

  /// Single-trial convenience with the same isolation/retry/trace
  /// behaviour as a batch of one.
  MeasureResult measure_one(const MeasureInput& input,
                            const MeasureOption& option);

  /// Enqueues one trial and returns immediately. With several slots the
  /// trial starts on the pool the moment a slot frees up; with one it
  /// runs inside a later wait_any(). Collect its result via wait_any().
  Ticket submit(MeasureInput input, const MeasureOption& option);

  /// Blocks until any submitted trial completes and returns it
  /// (completion order, not submission order). When no trial is running
  /// it runs the oldest queued one inline. CheckError when nothing is in
  /// flight.
  Completion wait_any();

  /// Trials submitted but not yet returned by wait_any().
  std::size_t in_flight() const;

  /// Concurrent trials for a caller on this thread: min of the device
  /// bound and the pool width — 1 when the runner is not parallel or the
  /// caller is a pool worker (the deterministic inline mode).
  std::size_t async_slots() const;

  /// Re-attributes subsequent trace events (e.g. per-strategy sessions).
  void set_strategy(std::string strategy);

  Device* device() const { return device_; }
  const MeasureRunnerOptions& options() const { return options_; }
  /// Total trials submitted over the runner's lifetime.
  std::size_t trials_submitted() const { return next_trial_; }
  /// Trials rejected by the static pre-screen (never dispatched).
  std::size_t analysis_rejects() const { return analysis_rejects_; }

 private:
  /// One submitted-but-not-yet-started trial.
  struct AsyncJob {
    Ticket ticket = 0;
    MeasureInput input;
    MeasureOption option;
  };

  /// One trial end-to-end: attempts + retries + trace events. Never
  /// throws.
  MeasureResult run_trial(const MeasureInput& input,
                          const MeasureOption& option, std::size_t trial);
  /// One device->measure call with fault isolation. Never throws.
  MeasureResult attempt_once(const MeasureInput& input,
                             const MeasureOption& option);
  /// run_trial bracketed by the dispatch / complete trace events.
  MeasureResult run_job(const AsyncJob& job);
  /// Slot refill: hands queued jobs to the pool while fewer than `slots`
  /// run. With one slot it leaves them for wait_any() to run inline.
  /// Caller holds async_mutex_.
  void dispatch_ready_locked(std::size_t slots);
  void trace_proposed(const MeasureInput& input, std::size_t trial);
  Json event(const char* name, std::size_t trial) const;

  Device* device_;
  MeasureRunnerOptions options_;
  ThreadPool* pool_;
  std::atomic<std::size_t> next_trial_{0};
  std::atomic<std::size_t> analysis_rejects_{0};

  // Queued jobs wait for a slot; completions wait for wait_any().
  // outstanding_ = queued + running + completed-uncollected.
  mutable std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<AsyncJob> async_queue_;
  std::deque<Completion> async_completed_;
  std::size_t async_running_ = 0;
  std::size_t async_outstanding_ = 0;
};

}  // namespace tvmbo::runtime
