// Multi-tenant tuning scheduler: multiplexes every active job's
// streaming BO loop onto one shared elastic WorkerPool.
//
// Each job is an AskTellSession (tuners/measure_loop.h) — the same
// propose/tell machine run_measure_loop_async drives — plus the
// kernel's configuration space and a strategy tuner built by
// framework::make_strategy_tuner with the session's seed-derivation
// scheme. Sessions are ticked from the outside by two kinds of thread:
//
//   dispatchers -> a fixed set, spawned lazily (never more than the
//                  slots leased at once) and kept until destruction. A
//                  dispatcher runs one trial on its leased slot, then,
//                  under the scheduler mutex, tells the job and queues
//                  the trial's record and event frames; it releases the
//                  slot, refills (highest-priority lane, then lowest
//                  consumed slot-seconds — deficit fair share; ask() the
//                  picked job for one configuration) and takes the first
//                  new dispatch itself. Idle dispatchers are woken only
//                  for the rest. submit() fills under its own lock.
//   the emitter -> the scheduler thread. It takes the outbox, appends its
//                  records to the perf database and the lookup cache,
//                  then writes its frames to the job sinks, all outside
//                  the mutex and in the order the dispatchers queued them.
//
// Order invariants:
//   * tell before release: a trial's completion is handled before its slot
//     is released, so a job is told each trial before it is asked for the
//     next, and a job's in-flight count never exceeds the fleet;
//   * a completion's frames enter the outbox in the critical section of
//     its tell, so each job's stream is job_start, its job_trial frames in
//     completion order, then job_complete;
//   * the emitter appends a batch's records before it writes the batch's
//     frames, so a job's records are in the database before its
//     job_complete frame is sent.
//
// Release happens outside the mutex because it may shut down a slot that
// resize() retired.
//
// Because the proposal stream of a session depends only on (space, seed,
// tell history), a single job on a one-worker daemon reproduces the
// `--runner proc --async` trajectory bit-identically: both drive strict
// ask/measure/tell alternation through the same AskTellSession.
//
// Admission control: a global active-job cap and a per-tenant cap, both
// answered with typed errors (queue_full / quota_exceeded) rather than
// queueing unboundedly. Cancellation SIGKILLs the job's in-flight
// workers via WorkerPool::kill_leased (a no-op once the lease's trial has
// ended) — the dispatchers get the crash verdict, the slots respawn and
// go to other tenants, and no wait_any-style ticket is ever stranded. A
// slot parked in respawn backoff with nothing else in flight is retried
// by the idle dispatchers until it is acquirable. drain() (SIGTERM) stops
// admission and proposals, delivers in-flight results, then cancels
// whatever is unfinished.
//
// Job lifetime: a job is live from admission until it is terminal (done
// or cancelled) *and* has no dispatch in flight — the completion that
// finishes it, a cancel with nothing in flight, the last abandoned
// completion after a cancel, or drain(). Then it retires: the tuner,
// session, space and event sink are freed, and a JobStatus snapshot
// keeps answering status() and list(). Only live jobs are scanned by
// the fill loop and by admission, so a daemon's per-trial cost does not
// grow with the number of jobs it has served.
//
// All completed trials of all tenants append to one global JSONL perf
// database through PerfDbAppender (crash/concurrency-safe appends), and
// every jit-backend trial compiles into one shared content-addressed
// artifact cache (the cache dir is pinned at scheduler construction).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.h"
#include "distd/worker_pool.h"
#include "framework/session.h"
#include "runtime/perf_db.h"
#include "runtime/trace_log.h"
#include "serve/protocol.h"
#include "transfer/lookup.h"

namespace tvmbo::serve {

struct SchedulerOptions {
  distd::WorkerPoolOptions pool;  ///< the shared fleet (elastic: resize())
  /// Compiler/flags/artifact cache shared by every jit-backend job across
  /// tenants; cache_dir is resolved once at construction.
  codegen::JitOptions jit;
  /// Global cap on jobs that are queued or running (0 = unlimited).
  std::size_t max_active_jobs = 16;
  /// Per-tenant cap on jobs that are queued or running (0 = unlimited).
  std::size_t max_jobs_per_tenant = 4;
  /// Per-job evaluation-budget ceiling (0 = unlimited).
  std::size_t max_budget = 10000;
  /// Strategy knobs (xgb cap, BO options) shared by all jobs.
  framework::StrategyFactoryOptions strategy;
  /// Path of the global cross-tenant JSONL perf database ("" disables).
  /// Existing records are also loaded into the instant-lookup cache at
  /// construction, so a restarted daemon answers config_lookup queries
  /// for everything earlier runs measured.
  std::string perf_db_path;
  /// Saved cross-kernel transfer model (transfer/model_store.h) backing
  /// config_lookup's model fallback ("" = cache-only answers).
  std::string transfer_model_path;
  /// Instant-lookup knobs (top-k cap, model candidate pool, seed).
  transfer::LookupOptions lookup;
  /// Lifecycle/trial event log (not owned; may be null; must outlive the
  /// scheduler).
  runtime::TraceLog* trace = nullptr;
};

enum class JobState { kQueued, kRunning, kDone, kCancelled };
const char* job_state_name(JobState state);

/// Snapshot of one job for status/list replies.
struct JobStatus {
  std::uint64_t id = 0;
  std::string tenant;
  std::string workload;
  std::string strategy;
  JobState state = JobState::kQueued;
  int priority = 1;
  std::size_t budget = 0;
  std::size_t completed = 0;
  std::size_t in_flight = 0;
  double slot_seconds = 0.0;  ///< worker time consumed (fair-share meter)
  double best_runtime_s = 0.0;  ///< 0 until a valid trial lands

  Json to_json() const;
};

class Scheduler {
 public:
  /// Per-job event callback. Invoked from the scheduler (emitter) thread
  /// with the scheduler mutex released — a sink may block on a slow client socket
  /// without stalling dispatch bookkeeping (though it delays event
  /// delivery for other jobs; the server keeps per-connection writes
  /// short). Null sinks are fine (fire-and-forget jobs).
  using EventSink = std::function<void(const Json&)>;

  struct SubmitResult {
    std::uint64_t job = 0;
    std::string error_code;  ///< empty on success
    std::string message;
    bool ok() const { return error_code.empty(); }
  };

  /// Spawns the worker fleet and the scheduler (emitter) thread eagerly;
  /// dispatcher threads are spawned as slots are first filled.
  explicit Scheduler(SchedulerOptions options);
  /// Drains (if not already drained) and stops everything.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission-checks and enqueues one job. On success the job is live
  /// and `sink` starts receiving its event frames.
  SubmitResult submit(const JobSpec& spec, EventSink sink);

  /// Cancels a queued/running job: stops proposing, SIGKILLs its
  /// in-flight workers, emits the job_cancel event. False when the job
  /// is unknown or already terminal (retired jobs included).
  bool cancel(std::uint64_t job, const std::string& reason);

  /// Live jobs and retired snapshots alike; list() is in id order.
  std::optional<JobStatus> status(std::uint64_t job) const;
  std::vector<JobStatus> list() const;

  /// Graceful shutdown: rejects new submissions, proposes nothing new,
  /// waits for every in-flight trial to deliver, then cancels unfinished
  /// jobs (reason "drain"). Idempotent; blocks until quiescent.
  void drain();

  /// Answers a config_lookup request without touching the scheduler
  /// mutex or the worker fleet: exact cache hit first (best measured
  /// tiles for the workload + thread budget), transfer-model top-k
  /// fallback otherwise. Returns a complete lookup_reply (or error)
  /// frame; `latency_us` in the reply times the answer itself.
  Json lookup(const LookupSpec& spec) const;

  /// Measured results in the instant-lookup cache (diagnostics/tests).
  std::size_t lookup_cache_size() const { return lookup_.cache_size(); }

  /// Dispatcher threads spawned so far (diagnostics/tests): bounded by
  /// the most slots the scheduler ever held leased at once.
  std::size_t dispatcher_count() const;

  distd::WorkerPool& pool() { return *pool_; }

 private:
  struct Job;
  struct Dispatch;
  struct PendingEvent;
  using JobMap = std::map<std::uint64_t, std::unique_ptr<Job>>;

  void run();  ///< scheduler thread main: the emitter
  void dispatcher_main();
  /// Leases free slots to runnable jobs and queues the dispatches on
  /// ready_; wake_dispatchers_locked() then hands them to dispatchers.
  void fill_slots_locked();
  void wake_dispatchers_locked();
  /// Tells the job one trial's result and queues its record and frames.
  void handle_completion_locked(const Dispatch& dispatch,
                                const runtime::MeasureResult& measured,
                                double elapsed_s);
  Job* pick_job_locked();
  /// Moves a terminal job with nothing in flight from jobs_ to retired_.
  void retire_locked(JobMap::iterator it);
  void finish_cancel_locked(Job& job, const std::string& reason);
  /// Queues one frame for the emitter (nothing for a null sink).
  void post_locked(const EventSink& sink, Json frame);
  void wake_emitter_locked();
  /// Trace events are built only when a trace log is attached.
  bool tracing() const { return options_.trace != nullptr; }
  void trace(Json event) const;

  SchedulerOptions options_;
  std::unique_ptr<distd::WorkerPool> pool_;
  std::unique_ptr<runtime::PerfDbAppender> perf_db_;
  /// Instant-config answerer: internally synchronized (own mutex), fed by
  /// the emitter, queried by lookup() without mutex_.
  transfer::ConfigLookup lookup_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;  ///< idle dispatchers wait here
  std::condition_variable emit_cv_;      ///< the emitter waits here
  std::condition_variable idle_cv_;      ///< drain() waits here
  JobMap jobs_;  ///< live jobs only
  /// Final snapshots of retired jobs (status/list answers; never cancellable).
  std::map<std::uint64_t, JobStatus> retired_;
  /// Leased dispatches no dispatcher has taken yet.
  std::deque<Dispatch> ready_;
  std::vector<std::thread> dispatchers_;
  /// Dispatchers holding a trial (from taking it until it is told), and
  /// dispatchers between that and relocking after the slot's release.
  std::size_t running_trials_ = 0;
  std::size_t releasing_slots_ = 0;
  /// The outbox: records and frames the emitter has yet to take.
  std::vector<runtime::TrialRecord> outbox_records_;
  std::vector<PendingEvent> outbox_events_;
  bool emitting_ = false;  ///< the emitter is writing what it took
  /// The last fill found a runnable job but no acquirable slot, with no
  /// trial in flight to refill one.
  bool cooling_ = false;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t next_dispatch_id_ = 1;
  bool draining_ = false;
  bool stop_ = false;
  std::thread scheduler_thread_;
};

}  // namespace tvmbo::serve
