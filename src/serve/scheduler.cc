#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "configspace/configspace.h"
#include "distd/fault_kernels.h"
#include "kernels/polybench.h"
#include "runtime/exec_backend.h"
#include "transfer/model_store.h"
#include "tuners/measure_loop.h"

namespace tvmbo::serve {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

Json JobStatus::to_json() const {
  Json out = Json::object();
  out.set("job", id);
  out.set("tenant", tenant);
  out.set("workload", workload);
  out.set("strategy", strategy);
  out.set("state", job_state_name(state));
  out.set("priority", priority);
  out.set("budget", static_cast<std::int64_t>(budget));
  out.set("completed", static_cast<std::int64_t>(completed));
  out.set("in_flight", static_cast<std::int64_t>(in_flight));
  out.set("slot_seconds", slot_seconds);
  out.set("best_runtime_s", best_runtime_s);
  return out;
}

/// One live job: the kernel's space, the strategy tuner seeded exactly
/// like a solo AutotuningSession would seed it, and the AskTellSession
/// the scheduler ticks. The space is heap-pinned (the tuner keeps a
/// pointer into it).
struct Scheduler::Job {
  std::uint64_t id = 0;
  JobSpec spec;
  runtime::Workload workload;
  runtime::ExecBackend backend = runtime::ExecBackend::kNative;
  std::unique_ptr<cs::ConfigurationSpace> space;
  std::unique_ptr<tuners::Tuner> tuner;
  std::unique_ptr<tuners::AskTellSession> session;
  EventSink sink;

  JobState state = JobState::kQueued;
  std::size_t completed = 0;
  std::size_t in_flight = 0;
  double slot_seconds = 0.0;
  double best_runtime_s = std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> best_tiles;
  /// Leases of this job's in-flight dispatches (kill targets on cancel).
  std::map<std::uint64_t, distd::WorkerPool::Lease> leases;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kCancelled;
  }
  /// Runnable = the fill loop may ask() it for another configuration.
  bool runnable() const { return !terminal() && session->can_ask(); }

  JobStatus status() const {
    JobStatus out;
    out.id = id;
    out.tenant = spec.tenant;
    out.workload = workload.id();
    out.strategy = spec.strategy;
    out.state = state;
    out.priority = spec.priority;
    out.budget = spec.budget;
    out.completed = completed;
    out.in_flight = in_flight;
    out.slot_seconds = slot_seconds;
    out.best_runtime_s =
        best_runtime_s == std::numeric_limits<double>::infinity()
            ? 0.0
            : best_runtime_s;
    return out;
  }
};

/// One trial between fill and completion: queued on ready_ until a
/// dispatcher takes it, then owned by that dispatcher.
struct Scheduler::Dispatch {
  std::uint64_t id = 0;
  std::uint64_t job = 0;
  distd::WorkerPool::Lease lease;
  distd::MeasureRequest request;
  cs::Configuration config;
};

struct Scheduler::PendingEvent {
  EventSink sink;
  Json frame;
};

namespace {

/// How often idle dispatchers retry a fill while every free slot is
/// parked in respawn backoff (the backoff starts at 100 ms).
constexpr std::chrono::milliseconds kCoolingRetry{20};

/// Space for a "fault.*" kernel (crash/cancel testing behind the same
/// serve path): P0's single candidate is benign or armed, so the whole
/// job deterministically does (or does not) fault; P1 is a dummy knob
/// that gives the strategies several distinct configurations to propose
/// (tuners never re-propose, so a one-point space would cap every fault
/// job at a single trial).
std::unique_ptr<cs::ConfigurationSpace> build_fault_space(bool armed) {
  auto space = std::make_unique<cs::ConfigurationSpace>();
  space->add(std::make_shared<cs::OrdinalHyperparameter>(
      "P0", std::vector<double>{
                static_cast<double>(armed ? distd::kFaultTrigger : 1)}));
  space->add(std::make_shared<cs::OrdinalHyperparameter>(
      "P1", std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
  return space;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)), lookup_(options_.lookup) {
  // Pin the shared artifact cache before any job or worker exists: all
  // tenants' jit trials must agree on one content-addressed directory.
  options_.jit.cache_dir = options_.jit.resolved_cache_dir();
  options_.pool.trace = options_.trace;
  pool_ = std::make_unique<distd::WorkerPool>(options_.pool);
  if (!options_.perf_db_path.empty()) {
    // Warm the instant-lookup cache from what earlier daemon runs (or a
    // prior tvmbo_tune) measured, before appending to the same file.
    if (std::filesystem::exists(options_.perf_db_path)) {
      const runtime::PerfDatabase prior =
          runtime::PerfDatabase::load(options_.perf_db_path);
      const std::size_t cached = lookup_.load_database(prior);
      TVMBO_LOG(Info) << "serve: lookup cache warmed with " << cached
                      << " record(s) from " << options_.perf_db_path;
    }
    perf_db_ =
        std::make_unique<runtime::PerfDbAppender>(options_.perf_db_path);
  }
  if (!options_.transfer_model_path.empty()) {
    auto model = std::make_shared<transfer::CostModel>(
        transfer::load_model(options_.transfer_model_path));
    TVMBO_CHECK(model->fitted())
        << "transfer model has too few samples to serve: "
        << options_.transfer_model_path;
    lookup_.set_model(std::move(model));
    TVMBO_LOG(Info) << "serve: transfer model loaded from "
                    << options_.transfer_model_path;
  }
  scheduler_thread_ = std::thread([this] { run(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  dispatch_cv_.notify_all();
  emit_cv_.notify_all();
  scheduler_thread_.join();
  // No dispatcher is spawned once stop_ is set.
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

std::size_t Scheduler::dispatcher_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dispatchers_.size();
}

void Scheduler::trace(Json event) const {
  if (options_.trace != nullptr) options_.trace->record(std::move(event));
}

Scheduler::SubmitResult Scheduler::submit(const JobSpec& spec,
                                          EventSink sink) {
  SubmitResult out;
  auto reject = [&](const std::string& code, const std::string& message) {
    out.error_code = code;
    out.message = message;
    if (tracing()) {
      Json event = Json::object();
      event.set("event", "job_reject");
      event.set("tenant", spec.tenant);
      event.set("code", code);
      trace(std::move(event));
    }
    return out;
  };

  // Build everything fallible *outside* the lock; admission is the only
  // part that needs the registry.
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->sink = std::move(sink);
  try {
    const std::optional<framework::StrategyKind> kind =
        framework::strategy_from_name(spec.strategy);
    TVMBO_CHECK(kind.has_value()) << "unknown strategy: " << spec.strategy;
    const std::optional<runtime::ExecBackend> backend =
        runtime::exec_backend_from_name(spec.backend);
    TVMBO_CHECK(backend.has_value()) << "unknown backend: " << spec.backend;
    job->backend = *backend;
    if (distd::is_fault_kernel(spec.kernel)) {
      job->workload = distd::make_fault_workload(spec.kernel);
      job->space = build_fault_space(spec.nthreads != 1);
    } else {
      const kernels::Dataset dataset =
          kernels::dataset_from_name(spec.size);
      job->workload = kernels::make_workload(spec.kernel, dataset);
      kernels::ParallelKnobs knobs;
      knobs.enabled = spec.nthreads != 1;
      knobs.max_threads = spec.nthreads;
      if (knobs.enabled) {
        TVMBO_CHECK(job->backend != runtime::ExecBackend::kNative)
            << "parallel tuning (nthreads != 1) requires a TE backend";
      }
      job->space = std::make_unique<cs::ConfigurationSpace>(
          kernels::build_space(spec.kernel, job->workload.dims, knobs));
    }
    if (options_.max_budget > 0 && spec.budget > options_.max_budget) {
      return reject("bad_request",
                    "budget exceeds the server cap of " +
                        std::to_string(options_.max_budget));
    }
    job->tuner = framework::make_strategy_tuner(*kind, job->space.get(),
                                                spec.seed,
                                                options_.strategy);
    job->session = std::make_unique<tuners::AskTellSession>(*job->tuner,
                                                            spec.budget);
  } catch (const std::exception& e) {
    return reject("bad_request", e.what());
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stop_) {
      return reject("draining", "server is draining; try again later");
    }
    std::size_t active = 0;
    std::size_t tenant_active = 0;
    for (const auto& [id, other] : jobs_) {
      if (other->terminal()) continue;
      ++active;
      if (other->spec.tenant == spec.tenant) ++tenant_active;
    }
    if (options_.max_active_jobs > 0 && active >= options_.max_active_jobs) {
      return reject("queue_full",
                    "server at its active-job cap of " +
                        std::to_string(options_.max_active_jobs));
    }
    if (options_.max_jobs_per_tenant > 0 &&
        tenant_active >= options_.max_jobs_per_tenant) {
      return reject("quota_exceeded",
                    "tenant '" + spec.tenant + "' at its quota of " +
                        std::to_string(options_.max_jobs_per_tenant) +
                        " active job(s)");
    }
    job->id = next_job_id_++;
    out.job = job->id;
    if (tracing()) {
      Json event = Json::object();
      event.set("event", "job_admit");
      event.set("job", job->id);
      event.set("tenant", spec.tenant);
      event.set("workload", job->workload.id());
      event.set("strategy", spec.strategy);
      event.set("budget", static_cast<std::int64_t>(spec.budget));
      event.set("priority", spec.priority);
      trace(std::move(event));
    }
    jobs_.emplace(job->id, std::move(job));
    fill_slots_locked();
    wake_dispatchers_locked();
  }
  return out;
}

bool Scheduler::cancel(std::uint64_t job_id, const std::string& reason) {
  std::vector<distd::WorkerPool::Lease> to_kill;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second->terminal()) return false;
    Job& job = *it->second;
    finish_cancel_locked(job, reason);
    for (const auto& [dispatch, lease] : job.leases) {
      to_kill.push_back(lease);
    }
    // With trials in flight the job retires on its last abandoned
    // completion instead.
    if (job.in_flight == 0) retire_locked(it);
  }
  // SIGKILL outside the lock: each dispatcher comes back with the crash
  // verdict, its completion is abandoned, and the respawned slot goes
  // back to the pool for the other tenants. A lease whose trial completed
  // in the meantime is stale, and kill_leased leaves its slot alone.
  for (const distd::WorkerPool::Lease& lease : to_kill) {
    pool_->kill_leased(lease);
  }
  return true;
}

void Scheduler::finish_cancel_locked(Job& job, const std::string& reason) {
  job.state = JobState::kCancelled;
  if (tracing()) {
    Json event = Json::object();
    event.set("event", "job_cancel");
    event.set("job", job.id);
    event.set("tenant", job.spec.tenant);
    event.set("reason", reason);
    event.set("completed", static_cast<std::int64_t>(job.completed));
    trace(std::move(event));
  }
  if (job.sink) {
    Json frame = event_frame("job_cancel", job.id);
    frame.set("reason", reason);
    frame.set("completed", static_cast<std::int64_t>(job.completed));
    post_locked(job.sink, std::move(frame));
  }
}

void Scheduler::post_locked(const EventSink& sink, Json frame) {
  if (!sink) return;
  outbox_events_.push_back({sink, std::move(frame)});
  wake_emitter_locked();
}

void Scheduler::wake_emitter_locked() {
  // A busy emitter looks at the outbox again before it waits.
  if (!emitting_) emit_cv_.notify_one();
}


void Scheduler::retire_locked(JobMap::iterator it) {
  retired_.emplace(it->first, it->second->status());
  jobs_.erase(it);
}

std::optional<JobStatus> Scheduler::status(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = jobs_.find(job_id); it != jobs_.end()) {
    return it->second->status();
  }
  if (auto it = retired_.find(job_id); it != retired_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::vector<JobStatus> Scheduler::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size() + retired_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job->status());
  for (const auto& [id, snapshot] : retired_) out.push_back(snapshot);
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) { return a.id < b.id; });
  return out;
}

void Scheduler::drain() {
  const auto nothing_dispatched = [&] {
    return ready_.empty() && running_trials_ == 0 && releasing_slots_ == 0;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  if (!draining_) {
    draining_ = true;
    if (tracing()) {
      Json event = Json::object();
      event.set("event", "serve_drain");
      trace(std::move(event));
    }
    // In-flight trials deliver normally (dispatchers keep telling results
    // while we wait); nothing new is proposed because fill_slots_locked
    // checks draining_.
    idle_cv_.wait(lock, nothing_dispatched);
    // Nothing is in flight any more, so every job retires here.
    while (!jobs_.empty()) {
      Job& job = *jobs_.begin()->second;
      if (!job.terminal()) finish_cancel_locked(job, "drain");
      retire_locked(jobs_.begin());
    }
  }
  // A second drainer (e.g. the destructor after an explicit drain) waits
  // here too, until the emitter has written every frame.
  idle_cv_.wait(lock, [&] {
    return nothing_dispatched() && outbox_records_.empty() &&
           outbox_events_.empty() && !emitting_;
  });
}

Json Scheduler::lookup(const LookupSpec& spec) const {
  const Stopwatch watch;
  const transfer::LookupAnswer answer = lookup_.lookup(
      spec.kernel, spec.size, spec.nthreads,
      static_cast<std::size_t>(spec.topk));
  const double latency_us = watch.elapsed_seconds() * 1e6;
  if (tracing()) {
    Json event = Json::object();
    event.set("event", "config_lookup");
    event.set("kernel", spec.kernel);
    event.set("size", spec.size);
    event.set("nthreads", spec.nthreads);
    event.set("source", answer.error.empty() ? answer.source : "error");
    event.set("latency_us", latency_us);
    trace(std::move(event));
  }
  if (!answer.error.empty()) {
    return error_frame("bad_request", answer.error);
  }
  Json reply = Json::object();
  reply.set("type", "lookup_reply");
  reply.set("source", answer.source);
  reply.set("workload", answer.workload_id);
  reply.set("nthreads", answer.nthreads);
  reply.set("cache_records",
            static_cast<std::int64_t>(answer.cache_records));
  Json configs = Json::array();
  for (const transfer::LookupAnswer::Candidate& candidate : answer.configs) {
    Json entry = Json::object();
    Json tiles = Json::array();
    for (std::int64_t t : candidate.tiles) tiles.push_back(t);
    entry.set("tiles", std::move(tiles));
    entry.set("runtime_s", candidate.runtime_s);
    configs.push_back(std::move(entry));
  }
  reply.set("configs", std::move(configs));
  reply.set("latency_us", latency_us);
  return reply;
}

Scheduler::Job* Scheduler::pick_job_locked() {
  // Deficit fair share within the best (lowest-numbered) non-empty
  // priority lane: the runnable job that has consumed the least worker
  // slot-time goes first; in-flight count then id break ties so a fresh
  // tie alternates instead of pinning to one job.
  Job* pick = nullptr;
  for (auto& [id, job] : jobs_) {
    if (!job->runnable()) continue;
    if (pick == nullptr) {
      pick = job.get();
      continue;
    }
    if (job->spec.priority != pick->spec.priority) {
      if (job->spec.priority < pick->spec.priority) pick = job.get();
      continue;
    }
    if (job->slot_seconds != pick->slot_seconds) {
      if (job->slot_seconds < pick->slot_seconds) pick = job.get();
      continue;
    }
    if (job->in_flight < pick->in_flight) pick = job.get();
  }
  return pick;
}

void Scheduler::fill_slots_locked() {
  cooling_ = false;
  if (draining_ || stop_) return;
  for (;;) {
    Job* job = pick_job_locked();
    if (job == nullptr) break;
    std::optional<distd::WorkerPool::Lease> lease = pool_->try_acquire();
    if (!lease.has_value()) {
      // Every slot is busy, or the free ones are parked in respawn
      // backoff. With no trial left to complete, nothing would refill
      // them: idle dispatchers retry until a slot is acquirable.
      cooling_ =
          ready_.empty() && running_trials_ == 0 && releasing_slots_ == 0;
      if (cooling_) dispatch_cv_.notify_all();
      break;
    }

    std::optional<cs::Configuration> config = job->session->ask();
    if (!config.has_value()) {
      // Space exhausted between pick and ask: give the slot back and
      // repick (the job is no longer runnable).
      pool_->release(std::move(*lease));
      continue;
    }

    if (job->state == JobState::kQueued) {
      job->state = JobState::kRunning;
      if (tracing()) {
        Json event = Json::object();
        event.set("event", "job_start");
        event.set("job", job->id);
        event.set("tenant", job->spec.tenant);
        trace(std::move(event));
      }
      post_locked(job->sink, event_frame("job_start", job->id));
    }

    Dispatch dispatch;
    dispatch.id = next_dispatch_id_++;
    dispatch.job = job->id;
    dispatch.request.workload = job->workload;
    dispatch.request.tiles = job->space->values_int(*config);
    dispatch.request.backend = job->backend;
    dispatch.request.jit = options_.jit;
    dispatch.request.option.repeat = job->spec.repeat;
    dispatch.request.option.timeout_s = job->spec.timeout_s;
    dispatch.request.seed = job->spec.seed;
    dispatch.config = std::move(*config);
    dispatch.lease = std::move(*lease);
    job->in_flight += 1;
    job->leases.emplace(dispatch.id, dispatch.lease);
    if (tracing()) {
      Json event = Json::object();
      event.set("event", "job_dispatch");
      event.set("job", job->id);
      event.set("dispatch", dispatch.id);
      event.set("worker", dispatch.lease.worker_id);
      trace(std::move(event));
    }
    ready_.push_back(std::move(dispatch));
  }
}

void Scheduler::wake_dispatchers_locked() {
  if (ready_.empty()) return;
  // Dispatchers not running a trial (idle, or about to relock after a
  // release) all look at ready_ next; spawn only the shortfall, so the
  // fleet of dispatchers never outgrows the slots leased at once.
  const std::size_t free = dispatchers_.size() - running_trials_;
  for (std::size_t i = free; i < ready_.size(); ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
  dispatch_cv_.notify_all();
}

void Scheduler::dispatcher_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (ready_.empty()) {
      idle_cv_.notify_all();  // drain() may be waiting for the last trial
      const auto dispatchable = [&] { return stop_ || !ready_.empty(); };
      if (cooling_) {
        if (!dispatch_cv_.wait_for(lock, kCoolingRetry, dispatchable)) {
          fill_slots_locked();
        }
      } else {
        dispatch_cv_.wait(lock, [&] { return dispatchable() || cooling_; });
      }
      if (ready_.empty()) {
        if (stop_) return;
        continue;
      }
    }
    Dispatch dispatch = std::move(ready_.front());
    ready_.pop_front();
    running_trials_ += 1;
    // Anything else a refill queued goes to the other dispatchers.
    wake_dispatchers_locked();
    lock.unlock();

    const Stopwatch watch;
    runtime::MeasureResult result =
        pool_->measure_leased(dispatch.lease, std::move(dispatch.request));
    const double elapsed_s = watch.elapsed_seconds();

    lock.lock();
    running_trials_ -= 1;
    releasing_slots_ += 1;
    // Told before the slot is released: the job cannot be asked again
    // for this slot's successor trial until it has seen this result.
    handle_completion_locked(dispatch, result, elapsed_s);
    lock.unlock();
    // release() may shut down a slot that resize() retired, so it runs
    // outside mutex_.
    pool_->release(std::move(dispatch.lease));
    lock.lock();
    releasing_slots_ -= 1;
    fill_slots_locked();  // the loop top takes the first new dispatch
  }
}

void Scheduler::handle_completion_locked(const Dispatch& dispatch,
                                         const runtime::MeasureResult& measured,
                                         double elapsed_s) {
  auto it = jobs_.find(dispatch.job);
  TVMBO_CHECK(it != jobs_.end())
      << "completion for unknown job " << dispatch.job;
  Job& job = *it->second;
  // The lease leaves the job's kill targets with the completion, so a
  // cancel that starts from here on does not target the slot.
  job.leases.erase(dispatch.id);
  job.in_flight -= 1;
  job.slot_seconds += elapsed_s;

  if (job.state == JobState::kCancelled) {
    // The trial raced the cancel (often SIGKILLed mid-run): drop it
    // without feeding the tuner — the session just balances its books.
    job.session->abandon();
    if (job.in_flight == 0) retire_locked(it);
    return;
  }

  job.session->tell(dispatch.config, measured.runtime_s, measured.valid);
  const std::size_t eval_index = job.completed;
  job.completed += 1;
  const std::vector<std::int64_t> tiles =
      job.space->values_int(dispatch.config);
  if (measured.valid && measured.runtime_s < job.best_runtime_s) {
    job.best_runtime_s = measured.runtime_s;
    job.best_tiles = tiles;
  }

  runtime::TrialRecord record;
  record.eval_index = static_cast<int>(eval_index);
  record.strategy = job.spec.tenant + "/" + std::to_string(job.id) + "/" +
                    job.spec.strategy;
  record.workload_id = job.workload.id();
  record.tiles = tiles;
  record.runtime_s = measured.runtime_s;
  record.compile_s = measured.compile_s;
  record.energy_j = measured.energy_j;
  record.elapsed_s = job.slot_seconds;
  record.valid = measured.valid;
  record.backend = job.spec.backend;
  record.nthreads = job.spec.nthreads;
  // The emitter appends it to the perf database and, even without a
  // perf-db file, to the instant-lookup cache, so config_lookup answers
  // improve while the daemon tunes.
  outbox_records_.push_back(std::move(record));
  wake_emitter_locked();

  if (tracing()) {
    Json event = Json::object();
    event.set("event", "job_trial");
    event.set("job", job.id);
    event.set("i", static_cast<std::int64_t>(eval_index));
    event.set("runtime_s", measured.runtime_s);
    event.set("valid", measured.valid);
    trace(std::move(event));
  }
  if (job.sink) {
    Json frame = event_frame("job_trial", job.id);
    frame.set("i", static_cast<std::int64_t>(eval_index));
    Json tiles_json = Json::array();
    for (std::int64_t t : tiles) tiles_json.push_back(t);
    frame.set("tiles", std::move(tiles_json));
    frame.set("runtime_s", measured.runtime_s);
    frame.set("valid", measured.valid);
    if (!measured.error.empty()) frame.set("error", measured.error);
    frame.set("best_runtime_s",
              job.best_runtime_s == std::numeric_limits<double>::infinity()
                  ? 0.0
                  : job.best_runtime_s);
    post_locked(job.sink, std::move(frame));
  }

  if (job.session->done()) {
    job.state = JobState::kDone;
    if (tracing()) {
      Json event = Json::object();
      event.set("event", "job_complete");
      event.set("job", job.id);
      event.set("tenant", job.spec.tenant);
      event.set("completed", static_cast<std::int64_t>(job.completed));
      event.set("slot_seconds", job.slot_seconds);
      trace(std::move(event));
    }
    if (job.sink) {
      Json frame = event_frame("job_complete", job.id);
      frame.set("completed", static_cast<std::int64_t>(job.completed));
      frame.set("best_runtime_s",
                job.best_runtime_s == std::numeric_limits<double>::infinity()
                    ? 0.0
                    : job.best_runtime_s);
      Json best = Json::array();
      for (std::int64_t t : job.best_tiles) best.push_back(t);
      frame.set("best_tiles", std::move(best));
      post_locked(job.sink, std::move(frame));
    }
    retire_locked(it);  // done() implies nothing is in flight
  }
}

void Scheduler::run() {
  std::vector<runtime::TrialRecord> records;
  std::vector<PendingEvent> events;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    emit_cv_.wait(lock, [&] {
      return stop_ || !outbox_records_.empty() || !outbox_events_.empty();
    });
    if (outbox_records_.empty() && outbox_events_.empty()) return;  // stop_
    records.swap(outbox_records_);
    events.swap(outbox_events_);
    emitting_ = true;
    lock.unlock();
    // Records before frames: every record queued before a job's
    // job_complete is in the database once that frame is written.
    for (const runtime::TrialRecord& record : records) {
      if (perf_db_ != nullptr) perf_db_->append(record);
      lookup_.observe(record);
    }
    for (PendingEvent& event : events) event.sink(event.frame);
    records.clear();
    events.clear();  // drops the sink copies outside mutex_ too
    lock.lock();
    emitting_ = false;
    idle_cv_.notify_all();
  }
}

}  // namespace tvmbo::serve
