// WorkerPool: fleet manager for out-of-process measurement workers.
//
// The pool spawns N copies of the tvmbo_worker binary, each of which
// connects back over the configured transport (Unix-domain socket by
// default, loopback TCP optionally) and serves length-prefixed JSON
// measure requests (protocol.h). measure() is thread-safe and blocking:
// MeasureRunner's parallel batch path calls it from up to N threads at
// once, each call exclusively owning one worker for the duration of its
// trial.
//
// Fault containment — the whole point of leaving the process:
//  * crash detection: a worker that dies mid-trial (SIGSEGV, abort,
//    nonzero exit) is detected by EOF on its socket; the trial comes back
//    as an invalid MeasureResult whose error names the signal/status, the
//    worker is respawned, and the tuner never sees the signal;
//  * hard wall-clock timeouts: when the trial has a timeout budget, a
//    worker that exceeds the derived hard deadline is SIGKILLed and the
//    trial reports "timeout (hard kill ...)" — this preempts a single
//    runaway run, which CpuDevice's cooperative between-runs check cannot;
//  * respawn backoff: consecutive failures of one worker slot back off
//    exponentially (100 ms doubling, capped) so a persistently crashing
//    environment cannot fork-bomb the host. The backoff never sleeps on
//    the dispatching thread: the slot is parked with a not-before
//    deadline and skipped by acquire() until the deadline passes (other
//    live workers keep serving trials; the spawn is retried on the
//    slot's next dispatch);
//  * lifecycle tracing: worker_spawn / worker_dispatch / worker_heartbeat
//    / worker_kill / worker_respawn / worker_exit events go through the
//    same TraceLog as the per-trial measurement events.
//
// Workers inherit the tuner's environment with sanitizer signal
// interception disabled (handle_segv=0 etc.) so intentional and genuine
// crash signals alike surface as real signals the pool can attribute.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "distd/protocol.h"
#include "distd/socket.h"
#include "runtime/trace_log.h"

namespace tvmbo::distd {

struct WorkerPoolOptions {
  std::size_t num_workers = 2;
  /// Worker executable. Empty resolves, in order: $TVMBO_WORKER_BIN, a
  /// tvmbo_worker next to the current executable, ../tools/tvmbo_worker
  /// relative to it, then a $PATH lookup.
  std::string worker_binary;
  /// "unix" (default) or "tcp" (loopback; the stepping stone to remote
  /// workers — the worker binary already accepts tcp endpoints).
  std::string transport = "unix";
  /// How long to wait for a freshly spawned worker to connect + hello.
  double spawn_timeout_s = 20.0;
  /// Explicit per-trial wall-clock cap enforced by SIGKILL (0 derives
  /// one from the trial's MeasureOption: timeout_s * (warmup + repeat +
  /// 1) + hard_timeout_grace_s, or no cap when the trial has no timeout).
  double hard_timeout_s = 0.0;
  /// Slack added to the derived hard deadline (covers compile time).
  double hard_timeout_grace_s = 10.0;
  /// Worker heartbeat interval while measuring (0 disables).
  int heartbeat_ms = 1000;
  /// Cap for the exponential respawn backoff.
  int max_respawn_backoff_ms = 2000;
  /// Lifecycle event log (not owned; may be null; must outlive the pool).
  runtime::TraceLog* trace = nullptr;
};

/// Resolves the worker binary path per WorkerPoolOptions::worker_binary.
std::string resolve_worker_binary(const std::string& configured);

class WorkerPool {
  struct Worker;

 public:
  /// Exclusive ownership of one worker slot between try_acquire() and
  /// release(): the holder may run any number of trials on it via
  /// measure_leased() before giving it back. Leases let an external
  /// scheduler (tvmbo_serve) do its own slot accounting — decide *which*
  /// job gets a freed slot — instead of the pool's FIFO measure() path.
  /// A copy of a lease targets kill_leased() at the trial it was copied
  /// before: the slot's lease generation moves on when a leased trial ends
  /// and when the slot is released.
  struct Lease {
    int worker_id = -1;

   private:
    friend class WorkerPool;
    Worker* worker = nullptr;
    std::uint64_t generation = 0;
  };

  /// Spawns the full fleet eagerly; throws CheckError when the worker
  /// binary cannot be started (bad path, no connect within the timeout).
  explicit WorkerPool(WorkerPoolOptions options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Dispatches one trial to a free worker (blocking until one is free
  /// and the trial completes, crashes, or hits the hard deadline). Never
  /// throws for per-trial failures; `request.trial` is overwritten with
  /// the pool's dispatch id.
  runtime::MeasureResult measure(MeasureRequest request);

  /// Non-blocking acquire: a lease on a free slot (live, or dead with an
  /// expired backoff — the next measure_leased() retries its spawn), or
  /// nullopt when every slot is busy/cooling/retired. Every lease must be
  /// release()d.
  std::optional<Lease> try_acquire();

  /// Runs one trial on a leased slot. Same fault containment as
  /// measure(): never throws for per-trial failures, crashes/timeouts
  /// come back as invalid results and the slot respawns under the same
  /// lease. `request.trial` is overwritten with the pool's dispatch id.
  runtime::MeasureResult measure_leased(Lease& lease, MeasureRequest request);

  /// Returns a leased slot to the free list (or shuts it down, if the
  /// slot was retired by a concurrent resize()).
  void release(Lease lease);

  /// SIGKILLs the process currently filling a leased slot (caller holds a
  /// *different* thread's lease — e.g. the serve scheduler cancelling a
  /// job whose trial is mid-flight). The dispatching thread sees EOF,
  /// reports an invalid "worker crashed" result, and respawns the slot —
  /// the ticket is never stranded. A stale lease (its trial has ended or
  /// the slot was released, perhaps to another holder) kills nothing.
  /// Safe against concurrent respawn: the generation check, the pid read
  /// and the kill happen under the pool's pid lock.
  void kill_leased(const Lease& lease);

  /// Elastically resizes the fleet to `n` active slots (n >= 1). Growth
  /// adds parked slots that spawn lazily on first dispatch; shrinking
  /// retires the highest-numbered slots — free ones shut down now, leased
  /// ones when released. In-flight trials (and wait_any() tickets riding
  /// on them) are never abandoned.
  void resize(std::size_t n);

  std::size_t num_workers() const;
  const std::string& endpoint() const { return listener_.endpoint(); }

  /// Fleet statistics (monotonic over the pool's lifetime).
  std::size_t total_spawns() const { return spawns_.load(); }
  std::size_t total_kills() const { return kills_.load(); }
  std::size_t total_crashes() const { return crashes_.load(); }

 private:
  struct Worker {
    int id = 0;
    pid_t pid = -1;
    int generation = 0;  ///< how many processes have filled this slot
    /// Advanced when a leased trial ends and on release; kill_leased()
    /// acts only on a lease that carries the current value. Written
    /// under pid_mutex_ by the slot's holder.
    std::uint64_t lease_generation = 0;
    Socket socket;
    int consecutive_failures = 0;
    /// Respawn-backoff deadline: while in the future the slot is parked
    /// (no process, skipped by acquire()). Written while the slot is
    /// exclusively owned; read under free_mutex_ once it is released.
    std::chrono::steady_clock::time_point not_before{};
    /// Set by resize() shrinking the fleet: the slot serves out any
    /// in-flight trial, then shuts down instead of returning to free_.
    /// Guarded by free_mutex_.
    bool retired = false;
    /// Currently held by an acquire()/try_acquire() caller. Lets a
    /// growing resize() tell a shut-down idle slot (must be re-queued
    /// on free_) from a leased one (its release() re-queues it).
    /// Guarded by free_mutex_.
    bool leased = false;
  };

  void spawn(Worker& worker);  ///< fork/exec + wait for matching hello
  runtime::MeasureResult measure_on(Worker& worker,
                                    const MeasureRequest& request);
  /// SIGKILL-or-reap the worker's process and return its wait status
  /// description (e.g. "signal 11 (Segmentation fault)").
  std::string collect_exit(Worker& worker, bool force_kill);
  void respawn_after_failure(Worker& worker);
  /// Exponential backoff for the slot's current failure count (0 for the
  /// first failure).
  int backoff_ms_for(const Worker& worker) const;
  /// Spawn retry for a parked slot whose backoff deadline has passed.
  void retry_spawn(Worker& worker);
  Worker* acquire();
  void release(Worker* worker);
  /// Sends shutdown + reaps one worker (used by release() on retired
  /// slots and by resize() on free retired slots).
  void shutdown_worker(Worker& worker);
  void shutdown_all();
  double hard_deadline_s(const runtime::MeasureOption& option) const;
  /// Trace events are built only when a trace log is attached.
  bool tracing() const { return options_.trace != nullptr; }
  void trace(Json event);
  Json worker_event(const char* name, const Worker& worker) const;

  WorkerPoolOptions options_;
  std::string binary_;
  std::string socket_dir_;  ///< temp dir holding the unix socket
  ListenSocket listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> free_;
  mutable std::mutex free_mutex_;
  std::condition_variable free_cv_;
  std::mutex spawn_mutex_;
  /// Serializes worker.pid transitions (spawn / collect_exit) and lease
  /// generation bumps against kill_leased() so a cancel can never SIGKILL
  /// a recycled pid or a slot that has moved on to another trial.
  std::mutex pid_mutex_;
  std::atomic<std::uint64_t> next_trial_{0};
  std::atomic<std::size_t> spawns_{0};
  std::atomic<std::size_t> kills_{0};
  std::atomic<std::size_t> crashes_{0};
};

}  // namespace tvmbo::distd
