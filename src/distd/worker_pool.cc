#include "distd/worker_pool.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"

extern char** environ;

namespace tvmbo::distd {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

int ms_until(Clock::time_point deadline) {
  const double s = seconds_until(deadline);
  return s > 0.0 ? static_cast<int>(s * 1000.0) : 0;
}

bool executable_file(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

std::string self_exe_dir() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return std::filesystem::path(buffer).parent_path().string();
}

/// "signal 11 (Segmentation fault)" / "exit status 3" from a wait status.
std::string describe_wait_status(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return "wait status " + std::to_string(status);
}

/// Waits for `pid`, polling WNOHANG up to `timeout_ms`; escalates to
/// SIGKILL + blocking wait if it does not exit in time. Returns the wait
/// status (-1 if the pid was already reaped elsewhere).
int reap(pid_t pid, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t rc = ::waitpid(pid, &status, WNOHANG);
    if (rc == pid) return status;
    if (rc < 0) return -1;  // not our child anymore
    if (seconds_until(deadline) <= 0.0) {
      ::kill(pid, SIGKILL);
      if (::waitpid(pid, &status, 0) == pid) return status;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Copies the environment, appending sanitizer options that keep crash
/// signals un-intercepted inside workers (so a SIGSEGV in a worker is
/// reported as a signal by the pool, not swallowed by a sanitizer's own
/// handler), merging with any caller-provided values.
std::vector<std::string> worker_environment() {
  struct Patch {
    const char* name;
    const char* extra;
  };
  static const Patch kPatches[] = {
      {"ASAN_OPTIONS", "handle_segv=0:handle_abort=0:handle_sigbus=0"},
      {"TSAN_OPTIONS", "handle_segv=0:handle_abort=0:handle_sigbus=0"},
      {"UBSAN_OPTIONS", "halt_on_error=0"},
  };
  std::vector<std::string> env;
  bool seen[std::size(kPatches)] = {};
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    std::string entry(*e);
    for (std::size_t i = 0; i < std::size(kPatches); ++i) {
      const std::string prefix = std::string(kPatches[i].name) + "=";
      if (starts_with(entry, prefix)) {
        entry += std::string(":") + kPatches[i].extra;
        seen[i] = true;
      }
    }
    env.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < std::size(kPatches); ++i) {
    if (!seen[i]) {
      env.push_back(std::string(kPatches[i].name) + "=" +
                    kPatches[i].extra);
    }
  }
  return env;
}

}  // namespace

std::string resolve_worker_binary(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TVMBO_WORKER_BIN");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  const std::string exe_dir = self_exe_dir();
  if (!exe_dir.empty()) {
    for (const char* rel : {"/tvmbo_worker", "/../tools/tvmbo_worker"}) {
      const std::string candidate = exe_dir + rel;
      if (executable_file(candidate)) return candidate;
    }
  }
  return "tvmbo_worker";  // $PATH lookup via execvpe
}

WorkerPool::WorkerPool(WorkerPoolOptions options)
    : options_(std::move(options)) {
  TVMBO_CHECK_GE(options_.num_workers, 1u)
      << "worker pool needs at least one worker";
  binary_ = resolve_worker_binary(options_.worker_binary);
  if (binary_.find('/') != std::string::npos) {
    TVMBO_CHECK(executable_file(binary_))
        << "worker binary not found or not executable: " << binary_
        << " (build the tvmbo_worker target or set $TVMBO_WORKER_BIN)";
  }

  if (options_.transport == "tcp") {
    listener_ = ListenSocket::tcp_loopback();
  } else {
    TVMBO_CHECK_EQ(options_.transport, "unix")
        << "unknown transport (want unix|tcp): " << options_.transport;
    char dir_template[] = "/tmp/tvmbo-distd-XXXXXX";
    TVMBO_CHECK(::mkdtemp(dir_template) != nullptr)
        << "mkdtemp failed: " << std::strerror(errno);
    socket_dir_ = dir_template;
    listener_ = ListenSocket::unix_domain(socket_dir_ + "/pool.sock");
  }

  try {
    for (std::size_t i = 0; i < options_.num_workers; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->id = static_cast<int>(i);
      spawn(*worker);
      workers_.push_back(std::move(worker));
    }
  } catch (...) {
    shutdown_all();
    if (!socket_dir_.empty()) {
      std::error_code ec;
      listener_ = ListenSocket();
      std::filesystem::remove_all(socket_dir_, ec);
    }
    throw;
  }
  for (auto& worker : workers_) free_.push_back(worker.get());
}

WorkerPool::~WorkerPool() {
  shutdown_all();
  if (!socket_dir_.empty()) {
    std::error_code ec;
    listener_ = ListenSocket();  // close + unlink the socket first
    std::filesystem::remove_all(socket_dir_, ec);
  }
}

void WorkerPool::trace(Json event) {
  if (options_.trace != nullptr) options_.trace->record(std::move(event));
}

Json WorkerPool::worker_event(const char* name, const Worker& worker) const {
  Json event = Json::object();
  event.set("event", name);
  event.set("worker", worker.id);
  event.set("pid", static_cast<std::int64_t>(worker.pid));
  return event;
}

void WorkerPool::spawn(Worker& worker) {
  std::lock_guard<std::mutex> lock(spawn_mutex_);

  // argv/envp are fully materialized before fork(): the child performs
  // only async-signal-safe calls (exec / _exit).
  const std::vector<std::string> args = {
      binary_,
      "--connect", listener_.endpoint(),
      "--worker-id", std::to_string(worker.id),
      "--heartbeat-ms", std::to_string(options_.heartbeat_ms),
  };
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::vector<std::string> env = worker_environment();
  std::vector<char*> envp;
  for (const std::string& entry : env) {
    envp.push_back(const_cast<char*>(entry.c_str()));
  }
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  TVMBO_CHECK_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ::execvpe(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  spawns_.fetch_add(1);

  // Wait for *this* child's hello. Connections from stale children (a
  // previous generation that lingered past its kill) are discarded by
  // the pid check.
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options_.spawn_timeout_s));
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      throw CheckError("worker " + std::to_string(worker.id) + " (" +
                       binary_ + ") died during startup: " +
                       describe_wait_status(status));
    }
    const int wait_ms = ms_until(deadline);
    if (wait_ms <= 0) {
      ::kill(pid, SIGKILL);
      reap(pid, 1000);
      throw CheckError("worker " + std::to_string(worker.id) + " (" +
                       binary_ + ") did not connect within " +
                       format_double(options_.spawn_timeout_s, 1) + " s");
    }
    std::optional<Socket> conn = listener_.accept(std::min(wait_ms, 100));
    if (!conn.has_value()) continue;
    Json hello;
    bool matches = false;
    if (read_frame(conn->fd(), &hello, std::min(ms_until(deadline), 2000)) ==
            FrameStatus::kOk &&
        frame_type(hello) == "hello") {
      try {
        matches = hello.at("pid").as_int() == static_cast<std::int64_t>(pid);
      } catch (const std::exception&) {
        matches = false;
      }
    }
    if (!matches) continue;  // stale or bogus connection; drop it
    {
      std::lock_guard<std::mutex> pid_lock(pid_mutex_);
      worker.pid = pid;
    }
    worker.generation += 1;
    worker.socket = std::move(*conn);
    break;
  }

  if (tracing()) {
    Json event = worker_event("worker_spawn", worker);
    event.set("generation", worker.generation);
    trace(std::move(event));
  }
}

WorkerPool::Worker* WorkerPool::acquire() {
  std::unique_lock<std::mutex> lock(free_mutex_);
  for (;;) {
    // Prefer a live worker. A dead slot (parked by a deferred respawn or
    // with a failed spawn) is only handed out once its backoff deadline
    // has passed; the dispatch path then retries its spawn.
    Worker* cooling = nullptr;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      Worker* candidate = *it;
      if (candidate->socket.valid()) {
        free_.erase(it);
        candidate->leased = true;
        return candidate;
      }
      if (cooling == nullptr || candidate->not_before < cooling->not_before) {
        cooling = candidate;
      }
    }
    if (cooling == nullptr) {
      free_cv_.wait(lock, [&] { return !free_.empty(); });
      continue;
    }
    if (Clock::now() >= cooling->not_before) {
      free_.erase(std::find(free_.begin(), free_.end(), cooling));
      cooling->leased = true;
      return cooling;
    }
    // Every free slot is cooling: wake at the earliest deadline or when
    // a live worker is released, whichever comes first.
    free_cv_.wait_until(lock, cooling->not_before);
  }
}

void WorkerPool::release(Worker* worker) {
  {
    std::lock_guard<std::mutex> pid_lock(pid_mutex_);
    worker->lease_generation += 1;
  }
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    worker->leased = false;
    retired = worker->retired;
    if (!retired) free_.push_back(worker);
  }
  if (retired) {
    // Retired by a resize() while leased/measuring: serve out the
    // shutdown here instead of re-queueing the slot.
    shutdown_worker(*worker);
    return;
  }
  free_cv_.notify_one();
}

double WorkerPool::hard_deadline_s(
    const runtime::MeasureOption& option) const {
  if (options_.hard_timeout_s > 0.0) return options_.hard_timeout_s;
  if (option.timeout_s > 0.0) {
    // Worst legal case: every run individually just under the cooperative
    // timeout, plus one run of slack and a compile grace.
    return option.timeout_s *
               static_cast<double>(option.warmup + option.repeat + 1) +
           options_.hard_timeout_grace_s;
  }
  return 0.0;  // no budget given: wait like the local runner would
}

std::string WorkerPool::collect_exit(Worker& worker, bool force_kill) {
  if (worker.pid < 0) return "no process";
  if (force_kill) ::kill(worker.pid, SIGKILL);
  const int status = reap(worker.pid, force_kill ? 2000 : 5000);
  const std::string description = describe_wait_status(status);
  if (tracing()) {
    Json event = worker_event("worker_exit", worker);
    event.set("status", description);
    trace(std::move(event));
  }
  worker.socket.close();
  {
    std::lock_guard<std::mutex> pid_lock(pid_mutex_);
    worker.pid = -1;
  }
  return description;
}

int WorkerPool::backoff_ms_for(const Worker& worker) const {
  if (worker.consecutive_failures <= 1) return 0;
  const int shift = std::min(worker.consecutive_failures - 2, 20);
  return std::min(options_.max_respawn_backoff_ms, 100 << shift);
}

void WorkerPool::respawn_after_failure(Worker& worker) {
  worker.consecutive_failures += 1;
  const int backoff_ms = backoff_ms_for(worker);
  if (tracing()) {
    Json event = Json::object();
    event.set("event", "worker_respawn");
    event.set("worker", worker.id);
    event.set("failures", worker.consecutive_failures);
    event.set("backoff_ms", backoff_ms);
    event.set("deferred", backoff_ms > 0);
    trace(std::move(event));
  }
  if (backoff_ms > 0) {
    // Park the slot instead of sleeping: a sleep here blocks the thread
    // that is dispatching trials, stalling the whole pipeline while the
    // other workers sit idle. acquire() skips the slot until the
    // deadline and the spawn is retried on its next dispatch.
    worker.not_before =
        Clock::now() + std::chrono::milliseconds(backoff_ms);
    return;
  }
  try {
    spawn(worker);
  } catch (const std::exception& e) {
    // Leave the slot dead; the next measure() on it retries the spawn.
    TVMBO_LOG(Warning) << "worker " << worker.id
                       << " respawn failed: " << e.what();
  }
}

void WorkerPool::retry_spawn(Worker& worker) {
  try {
    spawn(worker);
  } catch (const std::exception& e) {
    // Apply the backoff again so a persistently unspawnable slot cannot
    // spin hot through acquire().
    worker.consecutive_failures += 1;
    const int backoff_ms = backoff_ms_for(worker);
    if (backoff_ms > 0) {
      worker.not_before =
          Clock::now() + std::chrono::milliseconds(backoff_ms);
    }
    TVMBO_LOG(Warning) << "worker " << worker.id
                       << " respawn failed: " << e.what();
  }
}

runtime::MeasureResult WorkerPool::measure_on(Worker& worker,
                                              const MeasureRequest& request) {
  runtime::MeasureResult result;
  if (!worker.socket.valid()) {
    // The slot was parked by a deferred respawn (acquire() waited out
    // its backoff) or its last spawn attempt failed; retry the spawn
    // once before giving up on this trial.
    retry_spawn(worker);
    if (!worker.socket.valid()) {
      result.valid = false;
      result.error = "worker spawn failed (slot " +
                     std::to_string(worker.id) + ")";
      return result;
    }
  }

  if (tracing()) {
    Json event = worker_event("worker_dispatch", worker);
    event.set("trial", request.trial);
    event.set("workload", request.workload.id());
    trace(std::move(event));
  }

  const Clock::time_point start = Clock::now();
  const double budget_s = hard_deadline_s(request.option);
  const bool has_deadline = budget_s > 0.0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget_s));

  if (write_frame(worker.socket.fd(), request.to_json()) !=
      FrameStatus::kOk) {
    // Worker died between trials: report, respawn, and fail the trial
    // (the runner's retry policy re-dispatches to a live worker).
    crashes_.fetch_add(1);
    const std::string status = collect_exit(worker, /*force_kill=*/false);
    respawn_after_failure(worker);
    result.valid = false;
    result.error = "worker connection lost before dispatch (" + status + ")";
    return result;
  }

  for (;;) {
    const int wait_ms = has_deadline ? ms_until(deadline) : -1;
    Json message;
    const FrameStatus status = (has_deadline && wait_ms == 0)
                                   ? FrameStatus::kTimeout
                                   : read_frame(worker.socket.fd(), &message,
                                                wait_ms);
    if (status == FrameStatus::kOk) {
      const std::string type = frame_type(message);
      if (type == "heartbeat") {
        if (tracing()) {
          Json event = worker_event("worker_heartbeat", worker);
          event.set("trial", request.trial);
          trace(std::move(event));
        }
        continue;
      }
      if (type != "result") continue;  // ignore unknown frames
      MeasureReply reply;
      try {
        reply = MeasureReply::from_json(message);
      } catch (const std::exception& e) {
        result.valid = false;
        result.error = std::string("malformed worker reply: ") + e.what();
        return result;
      }
      worker.consecutive_failures = 0;
      return reply.result;
    }
    if (status == FrameStatus::kTimeout) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      kills_.fetch_add(1);
      if (tracing()) {
        Json event = worker_event("worker_kill", worker);
        event.set("trial", request.trial);
        event.set("reason", "hard timeout");
        event.set("elapsed_s", elapsed);
        trace(std::move(event));
      }
      const pid_t pid = worker.pid;
      collect_exit(worker, /*force_kill=*/true);
      respawn_after_failure(worker);
      result.valid = false;
      result.error = "timeout (hard kill after " +
                     format_double(elapsed, 2) + " s wall-clock; worker " +
                     std::to_string(worker.id) + " pid " +
                     std::to_string(pid) + " SIGKILLed)";
      result.runtime_s = elapsed;
      return result;
    }
    // kClosed / kError: the worker died mid-trial.
    crashes_.fetch_add(1);
    const std::string exit_status =
        collect_exit(worker, /*force_kill=*/false);
    respawn_after_failure(worker);
    result.valid = false;
    result.error = starts_with(exit_status, "signal")
                       ? "worker crashed: " + exit_status +
                             " during trial " + std::to_string(request.trial)
                       : "worker exited prematurely (" + exit_status +
                             ") during trial " +
                             std::to_string(request.trial);
    return result;
  }
}

runtime::MeasureResult WorkerPool::measure(MeasureRequest request) {
  request.trial = next_trial_.fetch_add(1);
  Worker* worker = acquire();
  runtime::MeasureResult result;
  try {
    result = measure_on(*worker, request);
  } catch (const std::exception& e) {
    result = runtime::MeasureResult();
    result.valid = false;
    result.error = std::string("worker pool error: ") + e.what();
  }
  release(worker);
  return result;
}

std::optional<WorkerPool::Lease> WorkerPool::try_acquire() {
  std::lock_guard<std::mutex> lock(free_mutex_);
  // Same preference order as acquire(): a live worker first, then a dead
  // slot whose backoff has expired (its spawn is retried on dispatch) —
  // but never block: the serve scheduler polls between completions.
  Worker* pick = nullptr;
  for (Worker* candidate : free_) {
    if (candidate->socket.valid()) {
      pick = candidate;
      break;
    }
    if (pick == nullptr && Clock::now() >= candidate->not_before) {
      pick = candidate;
    }
  }
  if (pick == nullptr) return std::nullopt;
  free_.erase(std::find(free_.begin(), free_.end(), pick));
  pick->leased = true;
  Lease lease;
  lease.worker_id = pick->id;
  lease.worker = pick;
  lease.generation = pick->lease_generation;
  return lease;
}

runtime::MeasureResult WorkerPool::measure_leased(Lease& lease,
                                                  MeasureRequest request) {
  TVMBO_CHECK(lease.worker != nullptr) << "measure on an empty lease";
  request.trial = next_trial_.fetch_add(1);
  runtime::MeasureResult result;
  try {
    result = measure_on(*lease.worker, request);
  } catch (const std::exception& e) {
    result = runtime::MeasureResult();
    result.valid = false;
    result.error = std::string("worker pool error: ") + e.what();
  }
  // The trial is over: copies of the lease taken before it go stale, so
  // a late kill_leased() cannot hit the slot's next trial.
  std::lock_guard<std::mutex> pid_lock(pid_mutex_);
  lease.generation = ++lease.worker->lease_generation;
  return result;
}

void WorkerPool::release(Lease lease) {
  TVMBO_CHECK(lease.worker != nullptr) << "release of an empty lease";
  release(lease.worker);
}

void WorkerPool::kill_leased(const Lease& lease) {
  TVMBO_CHECK(lease.worker != nullptr) << "kill of an empty lease";
  std::lock_guard<std::mutex> pid_lock(pid_mutex_);
  // Under pid_mutex_ the pid cannot be reaped-and-recycled concurrently:
  // collect_exit() clears it and spawn() installs the next one only
  // under this same lock. Likewise the slot cannot move on to another
  // trial between the generation check and the kill.
  if (lease.generation != lease.worker->lease_generation) return;
  if (lease.worker->pid >= 0) {
    kills_.fetch_add(1);
    if (tracing()) {
      Json event = worker_event("worker_kill", *lease.worker);
      event.set("reason", "lease kill");
      trace(std::move(event));
    }
    ::kill(lease.worker->pid, SIGKILL);
  }
}

void WorkerPool::resize(std::size_t n) {
  TVMBO_CHECK_GE(n, 1u) << "worker pool needs at least one worker";
  std::vector<Worker*> to_shutdown;
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    // Un-retire from the lowest ids up, retire from the highest down, so
    // repeated resizes always converge on slots [0, n).
    std::size_t active = 0;
    for (auto& worker : workers_) {
      if (!worker->retired) ++active;
    }
    if (n > active) {
      // First revive retired-but-not-yet-gone slots, then append new ones.
      for (auto& worker : workers_) {
        if (active == n) break;
        if (worker->retired) {
          worker->retired = false;
          // A slot retired while idle was shut down and dropped from
          // free_; re-queue it as a parked dead slot (lazy respawn). A
          // still-leased slot rejoins free_ through its release().
          if (!worker->leased) {
            worker->not_before = Clock::now();
            free_.push_back(worker.get());
          }
          ++active;
        }
      }
      while (active < n) {
        auto worker = std::make_unique<Worker>();
        worker->id = static_cast<int>(workers_.size());
        // Parked dead slot with an expired deadline: the first dispatch
        // spawns it (lazy growth — no fork storm inside the lock).
        worker->not_before = Clock::now();
        free_.push_back(worker.get());
        workers_.push_back(std::move(worker));
        ++active;
      }
    } else if (n < active) {
      for (auto it = workers_.rbegin(); it != workers_.rend() && active > n;
           ++it) {
        Worker* worker = it->get();
        if (worker->retired) continue;
        worker->retired = true;
        --active;
        const auto free_it = std::find(free_.begin(), free_.end(), worker);
        if (free_it != free_.end()) {
          free_.erase(free_it);
          to_shutdown.push_back(worker);  // free now: shut down below
        }
        // Leased slots finish their in-flight trial; release() reaps them.
      }
    }
    options_.num_workers = n;
  }
  free_cv_.notify_all();
  for (Worker* worker : to_shutdown) shutdown_worker(*worker);
  if (tracing()) {
    Json event = Json::object();
    event.set("event", "pool_resize");
    event.set("num_workers", static_cast<std::int64_t>(n));
    trace(std::move(event));
  }
}

std::size_t WorkerPool::num_workers() const {
  std::lock_guard<std::mutex> lock(free_mutex_);
  return options_.num_workers;
}

void WorkerPool::shutdown_worker(Worker& worker) {
  if (worker.socket.valid()) {
    write_frame(worker.socket.fd(), shutdown_message());
  }
  if (worker.pid >= 0) collect_exit(worker, /*force_kill=*/false);
  worker.socket.close();
}

void WorkerPool::shutdown_all() {
  for (auto& worker : workers_) {
    if (worker->socket.valid()) {
      write_frame(worker->socket.fd(), shutdown_message());
    }
  }
  for (auto& worker : workers_) {
    if (worker->pid >= 0) collect_exit(*worker, /*force_kill=*/false);
  }
}

}  // namespace tvmbo::distd
