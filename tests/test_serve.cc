// Tuning-as-a-service (serve): scheduler multiplexing, fair share,
// admission control, cancellation, crash/resize resilience, the socket
// server, and the solo-job determinism contract against the async proc
// measurement path.
//
// Like the proc-runner suite, these tests spawn real tvmbo_worker
// processes and are skipped when the binary cannot be found.
#include "serve/scheduler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "distd/fault_kernels.h"
#include "distd/proc_device.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/perf_db.h"
#include "runtime/trace_log.h"
#include "serve/client.h"
#include "serve/server.h"

namespace tvmbo::serve {
namespace {

bool worker_binary_available() {
  const std::string binary = distd::resolve_worker_binary("");
  if (binary.find('/') == std::string::npos) return false;
  return ::access(binary.c_str(), X_OK) == 0;
}

#define SKIP_WITHOUT_WORKER()                                        \
  do {                                                               \
    if (!worker_binary_available())                                  \
      GTEST_SKIP() << "tvmbo_worker binary not found; build the "    \
                      "tools targets first";                         \
  } while (0)

SchedulerOptions fast_options(std::size_t workers,
                              runtime::TraceLog* trace = nullptr) {
  SchedulerOptions options;
  options.pool.num_workers = workers;
  options.pool.heartbeat_ms = 100;
  options.pool.max_respawn_backoff_ms = 200;
  options.trace = trace;
  return options;
}

JobSpec gemm_spec(std::size_t budget, std::uint64_t seed,
                  const std::string& tenant = "default") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.kernel = "gemm";
  spec.size = "mini";
  spec.strategy = "random";
  spec.budget = budget;
  spec.seed = seed;
  return spec;
}

/// Armed fault job: every trial faults (nthreads != 1 arms the
/// single-candidate fault space). fault.spin runs until kill_leased.
JobSpec fault_spec(const std::string& kernel, std::size_t budget,
                   const std::string& tenant = "default") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.kernel = kernel;
  spec.budget = budget;
  spec.nthreads = 2;
  return spec;
}

/// Thread-safe event collector usable as a job's EventSink. Declare it
/// before the Scheduler that feeds it: the scheduler's destructor drains
/// and may still emit into the log, so the log must be destroyed last.
class EventLog {
 public:
  Scheduler::EventSink sink() {
    return [this](const Json& frame) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(frame);
        if (frame.contains("event") &&
            is_terminal_event(frame.at("event").as_string())) {
          terminal_ = true;
        }
      }
      cv_.notify_all();
    };
  }

  bool wait_terminal(int timeout_s = 60) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(timeout_s),
                        [&] { return terminal_; });
  }

  /// Blocks until an event with this name has arrived.
  bool wait_event(const std::string& name, int timeout_s = 60) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(timeout_s), [&] {
      return count_locked(name) > 0;
    });
  }

  std::size_t count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_locked(name);
  }

  std::vector<Json> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

  /// Tiles of every job_trial event, in arrival (completion) order.
  std::vector<std::vector<std::int64_t>> trial_tiles() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::int64_t>> out;
    for (const Json& event : events_) {
      if (!event.contains("event") ||
          event.at("event").as_string() != "job_trial") {
        continue;
      }
      std::vector<std::int64_t> tiles;
      for (const Json& t : event.at("tiles").as_array()) {
        tiles.push_back(t.as_int());
      }
      out.push_back(std::move(tiles));
    }
    return out;
  }

 private:
  std::size_t count_locked(const std::string& name) const {
    std::size_t n = 0;
    for (const Json& event : events_) {
      if (event.contains("event") && event.at("event").as_string() == name) {
        ++n;
      }
    }
    return n;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Json> events_;
  bool terminal_ = false;
};

// --- Determinism: the tentpole's reproducibility contract -----------------

/// A fixed-seed solo job on a one-worker daemon must visit the identical
/// configuration sequence as the same strategy under the async proc
/// measurement path (`tvmbo_tune --runner proc --async`): both drive
/// strict ask/measure/tell alternation through one AskTellSession over
/// the same space with the same derived seed.
TEST(Serve, SoloJobReproducesAsyncProcTrajectory) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 8;
  constexpr std::uint64_t kSeed = 2023;

  EventLog log;
  {
    Scheduler scheduler(fast_options(1));
    const auto result = scheduler.submit(gemm_spec(kBudget, kSeed),
                                         log.sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ASSERT_TRUE(log.wait_terminal());
  }
  const auto serve_tiles = log.trial_tiles();
  ASSERT_EQ(serve_tiles.size(), kBudget);

  const autotvm::Task task = kernels::make_task(
      "gemm", kernels::Dataset::kMini, /*executable=*/true);
  framework::SessionOptions session_options;
  session_options.max_evaluations = kBudget;
  session_options.seed = kSeed;
  session_options.async = true;

  distd::ProcDeviceOptions proc_options;
  proc_options.pool.num_workers = 1;
  proc_options.pool.heartbeat_ms = 100;
  distd::ProcDevice device(proc_options);
  framework::AutotuningSession session(&task, &device, session_options);
  const framework::SessionResult reference =
      session.run(framework::StrategyKind::kAutotvmRandom);

  ASSERT_EQ(reference.db.size(), kBudget);
  for (std::size_t i = 0; i < kBudget; ++i) {
    EXPECT_EQ(serve_tiles[i], reference.db.record(i).tiles)
        << "evaluation " << i << " diverged from the async proc loop";
  }
}

// --- Instant-config lookup ------------------------------------------------

/// config_lookup is the read-only fast path: once a job has measured a
/// workload, the scheduler answers queries for it from the in-memory
/// cache without dispatching any measurement — the trace gains
/// config_lookup events but not a single new job_dispatch.
TEST(Serve, LookupAnswersFromCacheWithoutDispatching) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 8;
  std::ostringstream trace_out;
  runtime::TraceLog trace(&trace_out);

  EventLog log;
  Scheduler scheduler(fast_options(1, &trace));
  EXPECT_EQ(scheduler.lookup_cache_size(), 0u);

  const auto result =
      scheduler.submit(gemm_spec(kBudget, 2023), log.sink());
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_TRUE(log.wait_terminal());
  // The job's completions fed the cache (best-per-workload keys).
  EXPECT_GT(scheduler.lookup_cache_size(), 0u);

  const auto count_events = [&](const std::string& name) {
    std::istringstream replay(trace_out.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(replay, line)) {
      const Json event = Json::parse(line);
      if (event.at("event").as_string() == name) ++n;
    }
    return n;
  };
  const std::size_t dispatches_before = count_events("job_dispatch");
  ASSERT_GT(dispatches_before, 0u);

  LookupSpec spec;
  spec.kernel = "gemm";
  spec.size = "mini";
  spec.nthreads = 1;
  spec.topk = 1;
  for (int i = 0; i < 3; ++i) {
    const Json reply = scheduler.lookup(spec);
    ASSERT_EQ(reply.at("type").as_string(), "lookup_reply");
    EXPECT_EQ(reply.at("source").as_string(), "cache");
    ASSERT_EQ(reply.at("configs").as_array().size(), 1u);
    EXPECT_GT(reply.at("configs").as_array()[0].at("runtime_s").as_double(),
              0.0);
  }
  // A workload nobody measured (and no model loaded): an honest "none".
  spec.kernel = "cholesky";
  EXPECT_EQ(scheduler.lookup(spec).at("source").as_string(), "none");
  // An unknown kernel: a typed error frame, not a dropped connection.
  spec.kernel = "nope";
  EXPECT_EQ(scheduler.lookup(spec).at("type").as_string(), "error");

  EXPECT_EQ(count_events("job_dispatch"), dispatches_before)
      << "config_lookup must never dispatch a measurement";
  EXPECT_EQ(count_events("config_lookup"), 5u);
}

// --- Multiplexing and fair share ------------------------------------------

TEST(Serve, ThreeConcurrentJobsShareFourWorkers) {
  SKIP_WITHOUT_WORKER();
  // gemm/mini's space has 18 configurations; stay under it so the jobs
  // finish by budget, not by space exhaustion.
  constexpr std::size_t kBudget = 15;
  // 50 timed runs make each trial ~3 ms of kernel time, so slot time
  // measures work rather than a few milliseconds of scheduling noise
  // (at repeat 1 the test failed about one run in three under ctest -j4).
  constexpr int kRepeat = 50;
  std::ostringstream trace_out;
  runtime::TraceLog trace(&trace_out);

  EventLog logs[3];
  Scheduler scheduler(fast_options(4, &trace));
  std::uint64_t ids[3];
  const char* tenants[3] = {"alice", "bob", "carol"};
  for (int i = 0; i < 3; ++i) {
    JobSpec spec =
        gemm_spec(kBudget, 100 + static_cast<std::uint64_t>(i), tenants[i]);
    spec.repeat = kRepeat;
    const auto result = scheduler.submit(spec, logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs[i].wait_terminal()) << "job " << ids[i] << " stuck";
    EXPECT_EQ(logs[i].count("job_complete"), 1u);
    EXPECT_EQ(logs[i].count("job_trial"), kBudget);
  }

  // Deficit fair share: equal workloads + equal budgets must consume
  // comparable slot time (generous bound — CI timing is noisy, but
  // systematic starvation would blow way past it).
  std::vector<double> seconds;
  for (int i = 0; i < 3; ++i) {
    const auto status = scheduler.status(ids[i]);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(status->completed, kBudget);
    seconds.push_back(status->slot_seconds);
  }
  const double lo = *std::min_element(seconds.begin(), seconds.end());
  const double hi = *std::max_element(seconds.begin(), seconds.end());
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, lo * 3.0) << "fair share skew: " << lo << " vs " << hi;

  // Trace-verify slot saturation: replaying job_dispatch vs job_trial in
  // order, exactly four dispatches must be outstanding at some point —
  // 3 runnable jobs never leave the fleet partially idle, and a trial's
  // job_trial is recorded before its slot is released, so a successor
  // dispatch never appears in the trace ahead of it.
  std::istringstream replay(trace_out.str());
  std::string line;
  int in_flight = 0;
  int max_in_flight = 0;
  while (std::getline(replay, line)) {
    const Json event = Json::parse(line);
    const std::string name = event.at("event").as_string();
    if (name == "job_dispatch") {
      max_in_flight = std::max(max_in_flight, ++in_flight);
    } else if (name == "job_trial") {
      --in_flight;
    }
  }
  EXPECT_GE(max_in_flight, 4);
  EXPECT_LE(max_in_flight, 4);
}

/// Records per strategy in an append-only JSONL perf database, reading
/// only what was appended since the last call.
class PerfDbTail {
 public:
  explicit PerfDbTail(std::string path) : path_(std::move(path)) {}

  std::size_t count(const std::string& strategy) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ifstream in(path_);
    in.seekg(static_cast<std::streamoff>(offset_));
    std::string line;
    while (std::getline(in, line) && !in.eof()) {
      offset_ += line.size() + 1;
      counts_[Json::parse(line).at("strategy").as_string()] += 1;
    }
    return counts_[strategy];
  }

 private:
  std::mutex mutex_;
  std::string path_;
  std::size_t offset_ = 0;
  std::map<std::string, std::size_t> counts_;
};

/// Each job's frames reach its sink in protocol order — job_start, then
/// `budget` job_trial frames, then job_complete — and all of its records
/// are in the perf database by the time job_complete is written. A job's
/// trials complete on several dispatchers at once, so out-of-order frames
/// show up in a few jobs per thousand: hence over a thousand short jobs
/// from three tenants on four workers.
TEST(Serve, JobStreamsAndRecordsStayInOrder) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 4;
  constexpr int kTenants = 3;
  constexpr int kJobsPerTenant = 400;
  const std::string db_path = "/tmp/tvmbo_serve_order_" +
                              std::to_string(::getpid()) + "_db.jsonl";
  std::remove(db_path.c_str());
  PerfDbTail db(db_path);

  std::vector<std::unique_ptr<EventLog>> logs;
  for (int i = 0; i < kTenants * kJobsPerTenant; ++i) {
    logs.push_back(std::make_unique<EventLog>());
  }
  {
    SchedulerOptions options = fast_options(4);
    options.perf_db_path = db_path;
    Scheduler scheduler(options);
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        const std::string tenant = "tenant" + std::to_string(t);
        for (int j = 0; j < kJobsPerTenant; ++j) {
          EventLog& log = *logs[static_cast<std::size_t>(
              t * kJobsPerTenant + j)];
          // Tags job_complete with the job's records in the database at
          // the moment the frame is written.
          auto sink = [inner = log.sink(), tenant, &db](const Json& frame) {
            if (frame.at("event").as_string() != "job_complete") {
              inner(frame);
              return;
            }
            Json tagged = frame;
            tagged.set("records",
                       static_cast<std::int64_t>(db.count(
                           tenant + "/" +
                           std::to_string(frame.at("job").as_int()) +
                           "/random")));
            inner(tagged);
          };
          JobSpec spec = gemm_spec(
              kBudget, static_cast<std::uint64_t>(1000 * t + j), tenant);
          spec.backend = "closure";
          const auto result = scheduler.submit(spec, sink);
          if (!result.ok()) {
            ADD_FAILURE() << tenant << ": " << result.message;
            return;
          }
          if (!log.wait_terminal()) {
            ADD_FAILURE() << "job " << result.job << " stuck";
            return;
          }
        }
      });
    }
    for (std::thread& tenant : tenants) tenant.join();
  }
  std::remove(db_path.c_str());

  std::size_t bad_streams = 0;
  for (const auto& log : logs) {
    const std::vector<Json> events = log->events();
    std::vector<std::string> names;
    std::vector<std::int64_t> indices;
    for (const Json& event : events) {
      names.push_back(event.at("event").as_string());
      if (names.back() == "job_trial") {
        indices.push_back(event.at("i").as_int());
      }
    }
    std::vector<std::string> expected = {"job_start"};
    expected.insert(expected.end(), kBudget, "job_trial");
    expected.push_back("job_complete");
    const bool ordered =
        names == expected &&
        indices == std::vector<std::int64_t>{0, 1, 2, 3} &&
        events.back().at("records").as_int() ==
            static_cast<std::int64_t>(kBudget);
    if (!ordered && ++bad_streams <= 3) {
      std::string got;
      for (const Json& event : events) got += event.dump() + "\n";
      ADD_FAILURE() << "job stream out of order:\n" << got;
    }
  }
  EXPECT_EQ(bad_streams, 0u) << "of " << logs.size() << " jobs";
}

/// A fire-and-forget job (no event sink) queues no frames, yet its
/// records still reach the lookup cache (and the perf database).
TEST(Serve, SinklessJobStillRecordsItsTrials) {
  SKIP_WITHOUT_WORKER();
  Scheduler scheduler(fast_options(1));
  const auto result = scheduler.submit(gemm_spec(4, 9), nullptr);
  ASSERT_TRUE(result.ok()) << result.message;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.status(result.job)->state != JobState::kDone ||
         scheduler.lookup_cache_size() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the job's records never reached the lookup cache";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Dispatchers are a fixed set, not a thread per trial: after over a
/// hundred trials on two workers, no more dispatcher threads exist than
/// the two slots the scheduler could ever hold leased at once.
TEST(Serve, DispatchersNeverOutnumberSlots) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 15;
  constexpr int kJobs = 8;
  EventLog logs[kJobs];
  Scheduler scheduler(fast_options(2));
  EXPECT_EQ(scheduler.dispatcher_count(), 0u) << "spawned before any job";
  for (int i = 0; i < kJobs; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(kBudget, 400 + static_cast<std::uint64_t>(i),
                  i % 2 == 0 ? "alice" : "bob"),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
  }
  for (EventLog& log : logs) {
    ASSERT_TRUE(log.wait_terminal());
    EXPECT_EQ(log.count("job_trial"), kBudget);
  }
  EXPECT_GE(scheduler.dispatcher_count(), 1u);
  EXPECT_LE(scheduler.dispatcher_count(), 2u);
}

// --- Admission control ----------------------------------------------------

TEST(Serve, QuotaAndQueueRejectionsAreTyped) {
  SKIP_WITHOUT_WORKER();
  SchedulerOptions options = fast_options(1);
  options.max_jobs_per_tenant = 1;
  options.max_active_jobs = 2;
  options.max_budget = 50;
  // Bob's job can still be running at scope exit: the logs must outlive
  // the scheduler, whose destructor drains into them.
  EventLog log_a;
  EventLog log_b;
  Scheduler scheduler(options);

  const auto a = scheduler.submit(fault_spec("fault.spin", 1, "alice"),
                                  log_a.sink());
  ASSERT_TRUE(a.ok()) << a.message;

  const auto a2 = scheduler.submit(gemm_spec(5, 1, "alice"), nullptr);
  EXPECT_EQ(a2.error_code, "quota_exceeded");

  const auto b = scheduler.submit(gemm_spec(5, 1, "bob"), log_b.sink());
  ASSERT_TRUE(b.ok()) << b.message;

  const auto c = scheduler.submit(gemm_spec(5, 1, "carol"), nullptr);
  EXPECT_EQ(c.error_code, "queue_full");

  const auto big = scheduler.submit(gemm_spec(51, 1, "dave"), nullptr);
  EXPECT_EQ(big.error_code, "bad_request");

  JobSpec nonsense = gemm_spec(5, 1, "dave");
  nonsense.strategy = "simulated-annealing";
  EXPECT_EQ(scheduler.submit(nonsense, nullptr).error_code, "bad_request");

  // Cancelling alice's spinner frees her quota slot immediately.
  ASSERT_TRUE(scheduler.cancel(a.job, "test"));
  ASSERT_TRUE(log_a.wait_terminal());
  const auto a3 = scheduler.submit(gemm_spec(5, 2, "alice"), nullptr);
  EXPECT_TRUE(a3.ok()) << a3.error_code << ": " << a3.message;
}

// --- Cancellation ---------------------------------------------------------

/// A spinning trial holds the only worker; cancelling its job SIGKILLs
/// the worker, the slot respawns, and the other tenant's queued job gets
/// it — cancellation frees capacity, it never strands it.
TEST(Serve, CancelMidFlightFreesSlotToOtherTenant) {
  SKIP_WITHOUT_WORKER();
  EventLog spin_log;
  EventLog gemm_log;
  Scheduler scheduler(fast_options(1));

  const auto spin = scheduler.submit(fault_spec("fault.spin", 2, "alice"),
                                     spin_log.sink());
  ASSERT_TRUE(spin.ok()) << spin.message;
  ASSERT_TRUE(spin_log.wait_event("job_start"));

  const auto gemm = scheduler.submit(gemm_spec(4, 7, "bob"),
                                     gemm_log.sink());
  ASSERT_TRUE(gemm.ok()) << gemm.message;
  // The only slot is pinned by the spinning trial.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(scheduler.status(gemm.job)->completed, 0u);

  ASSERT_TRUE(scheduler.cancel(spin.job, "test cancel"));
  ASSERT_TRUE(spin_log.wait_terminal());
  EXPECT_EQ(spin_log.count("job_cancel"), 1u);
  ASSERT_TRUE(gemm_log.wait_terminal());
  EXPECT_EQ(gemm_log.count("job_complete"), 1u);
  EXPECT_EQ(scheduler.status(gemm.job)->completed, 4u);
  EXPECT_GE(scheduler.pool().total_kills(), 1u);
}

// --- Fault and fleet resilience -------------------------------------------

/// Every trial of an armed fault.segv job kills its worker mid-trial; the
/// crash verdicts flow back as invalid trials, the slots respawn, and the
/// job still runs its full budget — no ticket is ever stranded.
TEST(Serve, WorkerCrashMidStreamDoesNotStrandJob) {
  SKIP_WITHOUT_WORKER();
  EventLog log;
  Scheduler scheduler(fast_options(2));
  const auto result = scheduler.submit(fault_spec("fault.segv", 4),
                                       log.sink());
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_TRUE(log.wait_terminal());
  EXPECT_EQ(log.count("job_complete"), 1u);
  EXPECT_EQ(log.count("job_trial"), 4u);
  for (const Json& event : log.events()) {
    if (event.contains("event") &&
        event.at("event").as_string() == "job_trial") {
      EXPECT_FALSE(event.at("valid").as_bool());
    }
  }
  EXPECT_GE(scheduler.pool().total_crashes(), 4u);
}

/// A slot that keeps crashing is parked in respawn backoff. With nothing
/// else in flight, no completion refills it, so the scheduler must come
/// back to it once the backoff expires instead of stalling the job.
TEST(Serve, JobOutlastsRespawnBackoff) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 6;
  EventLog log;
  Scheduler scheduler(fast_options(1));
  const auto result = scheduler.submit(fault_spec("fault.segv", kBudget),
                                       log.sink());
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_TRUE(log.wait_terminal(20)) << "job stalled after "
                                     << log.count("job_trial") << " trials";
  EXPECT_EQ(log.count("job_trial"), kBudget);
  EXPECT_EQ(log.count("job_complete"), 1u);
}

/// Shrinking and growing the fleet under two active jobs must not lose a
/// single dispatch: retired slots serve out their in-flight trial, new
/// slots spawn lazily, and both jobs complete their budgets.
TEST(Serve, ResizeDuringActiveJobsNeverStrands) {
  SKIP_WITHOUT_WORKER();
  EventLog logs[2];
  Scheduler scheduler(fast_options(3));
  std::uint64_t ids[2];
  for (int i = 0; i < 2; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(15, 200 + static_cast<std::uint64_t>(i),
                  i == 0 ? "alice" : "bob"),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  ASSERT_TRUE(logs[0].wait_event("job_start"));
  scheduler.pool().resize(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  scheduler.pool().resize(4);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(logs[i].wait_terminal()) << "job " << ids[i] << " stuck";
    EXPECT_EQ(scheduler.status(ids[i])->completed, 15u);
  }
  EXPECT_EQ(scheduler.pool().num_workers(), 4u);
}

/// Pool-level lease contract: try_acquire is non-blocking and exhausts,
/// released slots come back, resize retires/revives slots, and a leased
/// slot survives shrink-then-release without stranding.
TEST(Serve, PoolLeaseAcquireReleaseResize) {
  SKIP_WITHOUT_WORKER();
  distd::WorkerPoolOptions options;
  options.num_workers = 2;
  options.heartbeat_ms = 100;
  distd::WorkerPool pool(options);

  auto a = pool.try_acquire();
  auto b = pool.try_acquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(pool.try_acquire().has_value()) << "third lease from 2 slots";

  // A leased slot still measures (benign fault kernel: tiny real work).
  distd::MeasureRequest request;
  request.workload = distd::make_fault_workload("fault.segv");
  request.tiles = {1};
  const runtime::MeasureResult result =
      pool.measure_leased(*a, request);
  EXPECT_TRUE(result.valid) << result.error;

  pool.release(std::move(*a));
  auto again = pool.try_acquire();
  ASSERT_TRUE(again.has_value());  // the slot came back
  pool.release(std::move(*again));

  // Shrink while slot b is still leased: its worker serves out the lease
  // and shuts down on release instead of rejoining the free list.
  pool.resize(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  pool.release(std::move(*b));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Grow again: revived/parked slots are acquirable immediately (they
  // spawn lazily on first dispatch).
  pool.resize(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<distd::WorkerPool::Lease> leases;
  for (int i = 0; i < 3; ++i) {
    auto lease = pool.try_acquire();
    ASSERT_TRUE(lease.has_value()) << "slot " << i << " not acquirable";
    leases.push_back(std::move(*lease));
  }
  EXPECT_FALSE(pool.try_acquire().has_value());
  for (auto& lease : leases) {
    const runtime::MeasureResult r = pool.measure_leased(lease, request);
    EXPECT_TRUE(r.valid) << r.error;
    pool.release(std::move(lease));
  }
}

/// A lease copied before its slot moved on cannot kill: not once the slot
/// was released and leased again (the new holder's trial must run), and
/// not once the trial it was copied for has ended.
TEST(Serve, PoolKillOfStaleLeaseIsVoid) {
  SKIP_WITHOUT_WORKER();
  distd::WorkerPoolOptions options;
  options.num_workers = 1;
  options.heartbeat_ms = 100;
  distd::WorkerPool pool(options);
  distd::MeasureRequest request;
  request.workload = distd::make_fault_workload("fault.segv");
  request.tiles = {1};

  auto a = pool.try_acquire();
  ASSERT_TRUE(a.has_value());
  const distd::WorkerPool::Lease released = *a;
  pool.release(std::move(*a));
  auto b = pool.try_acquire();
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(b->worker_id, released.worker_id);
  pool.kill_leased(released);
  EXPECT_EQ(pool.total_kills(), 0u);
  runtime::MeasureResult result = pool.measure_leased(*b, request);
  EXPECT_TRUE(result.valid) << result.error;

  // b's copy from before that trial is stale now; the holder's lease
  // targets its next trial.
  const distd::WorkerPool::Lease before_trial = *b;
  result = pool.measure_leased(*b, request);
  EXPECT_TRUE(result.valid) << result.error;
  pool.kill_leased(before_trial);
  EXPECT_EQ(pool.total_kills(), 0u);
  result = pool.measure_leased(*b, request);
  EXPECT_TRUE(result.valid) << result.error;
  pool.release(std::move(*b));
  EXPECT_EQ(pool.total_crashes(), 0u);
}

// --- Drain ----------------------------------------------------------------

TEST(Serve, DrainCancelsUnfinishedAndRejectsNew) {
  SKIP_WITHOUT_WORKER();
  EventLog logs[2];
  Scheduler scheduler(fast_options(1));
  std::uint64_t ids[2];
  for (int i = 0; i < 2; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(5000, 300 + static_cast<std::uint64_t>(i),
                  i == 0 ? "alice" : "bob"),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  scheduler.drain();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(logs[i].wait_terminal(5)) << "no terminal event";
    EXPECT_EQ(logs[i].count("job_cancel"), 1u);
    const auto status = scheduler.status(ids[i]);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kCancelled);
    EXPECT_LT(status->completed, 5000u);
  }
  EXPECT_EQ(scheduler.submit(gemm_spec(5, 1), nullptr).error_code,
            "draining");
}

// --- Job lifetime ---------------------------------------------------------

/// True once `ref` expires, polling for up to `timeout`.
bool expires_within(const std::weak_ptr<int>& ref,
                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!ref.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return ref.expired();
}

/// A sink that forwards to `log` and keeps `token` alive for as long as
/// the scheduler holds the sink.
Scheduler::EventSink token_sink(EventLog& log, std::shared_ptr<int> token) {
  return [inner = log.sink(), token = std::move(token)](const Json& frame) {
    inner(frame);
  };
}

/// A finished job retires: its tuner, session and event sink are freed
/// (the token the sink captured expires), while status(), list() and
/// cancel() answer from its final snapshot exactly as for a live job.
/// list() stays in id order across retired and live jobs.
TEST(Serve, FinishedJobsRetireToSnapshots) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 4;
  EventLog logs[3];
  Scheduler scheduler(fast_options(2));

  auto done_token = std::make_shared<int>(0);
  const std::weak_ptr<int> done_ref = done_token;
  const auto first =
      scheduler.submit(gemm_spec(kBudget, 5, "alice"),
                       token_sink(logs[0], std::move(done_token)));
  ASSERT_TRUE(first.ok()) << first.message;
  ASSERT_TRUE(logs[0].wait_terminal());
  ASSERT_EQ(logs[0].count("job_complete"), 1u);
  EXPECT_TRUE(expires_within(done_ref, std::chrono::seconds(5)))
      << "a finished job still holds its event sink";

  // A spinner keeps job 2 live on one worker while job 3 finishes on the
  // other, so the live job sits between two retired ones.
  auto spin_token = std::make_shared<int>(0);
  const std::weak_ptr<int> spin_ref = spin_token;
  const auto spin =
      scheduler.submit(fault_spec("fault.spin", 1, "bob"),
                       token_sink(logs[1], std::move(spin_token)));
  ASSERT_TRUE(spin.ok()) << spin.message;
  ASSERT_TRUE(logs[1].wait_event("job_start"));
  const auto third =
      scheduler.submit(gemm_spec(kBudget, 6, "carol"), logs[2].sink());
  ASSERT_TRUE(third.ok()) << third.message;
  ASSERT_TRUE(logs[2].wait_terminal());

  const auto status = scheduler.status(first.job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->completed, kBudget);
  EXPECT_EQ(status->in_flight, 0u);
  EXPECT_GT(status->slot_seconds, 0.0);
  EXPECT_GT(status->best_runtime_s, 0.0);

  const std::vector<JobStatus> jobs = scheduler.list();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].id, first.job);
  EXPECT_EQ(jobs[1].id, spin.job);
  EXPECT_EQ(jobs[2].id, third.job);
  EXPECT_EQ(jobs[0].state, JobState::kDone);
  EXPECT_EQ(jobs[0].completed, kBudget);
  EXPECT_EQ(jobs[0].slot_seconds, status->slot_seconds);
  EXPECT_EQ(jobs[1].state, JobState::kRunning);
  EXPECT_EQ(jobs[2].state, JobState::kDone);
  EXPECT_FALSE(scheduler.cancel(first.job, "late"));

  // A cancelled job retires once its killed trial comes back.
  ASSERT_TRUE(scheduler.cancel(spin.job, "test"));
  ASSERT_TRUE(logs[1].wait_terminal());
  EXPECT_TRUE(expires_within(spin_ref, std::chrono::seconds(5)))
      << "a cancelled job still holds its event sink";
  EXPECT_EQ(scheduler.status(spin.job)->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(spin.job, "again"));
  EXPECT_EQ(scheduler.list().size(), 3u);
}

// --- Socket server + client ----------------------------------------------

std::string temp_socket_path(const char* tag) {
  return "/tmp/tvmbo_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Serve, ServerSubmitStreamsEventsAndAnswersQueries) {
  SKIP_WITHOUT_WORKER();
  Scheduler scheduler(fast_options(2));
  ServerOptions server_options;
  server_options.socket_path = temp_socket_path("query");
  server_options.poll_ms = 50;
  ServeServer server(&scheduler, server_options);

  ServeClient client(server.endpoint());
  JobSpec spec = gemm_spec(5, 11, "alice");
  const auto outcome = client.submit(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.error_code << ": " << outcome.message;

  std::size_t trials = 0;
  bool complete = false;
  while (!complete) {
    const auto event = client.next_event(/*timeout_ms=*/2000);
    ASSERT_TRUE(event.has_value()) << "event stream stalled";
    const std::string name = event->at("event").as_string();
    if (name == "job_trial") ++trials;
    if (name == "job_complete") complete = true;
  }
  EXPECT_EQ(trials, 5u);

  const auto status = job_status(server.endpoint(), outcome.job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_EQ(status->at("completed").as_int(), 5);

  const Json list = job_list(server.endpoint());
  EXPECT_EQ(list.at("jobs").as_array().size(), 1u);

  // Terminal jobs are not cancellable; unknown ids are typed errors.
  EXPECT_FALSE(job_cancel(server.endpoint(), outcome.job));
  EXPECT_FALSE(job_cancel(server.endpoint(), 999));

  scheduler.drain();
  server.shutdown();
}

/// The process's mapped address space in kB, leaving out PROT_NONE
/// reservations, or -1 without procfs. VmSize would also count the 64 MB
/// that glibc reserves for each malloc arena it adds when threads happen
/// to allocate at the same moment, which depends on scheduling; a thread
/// stack (8 MB read-write) counts either way.
long mapped_kb() {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return -1;
  long total = 0;
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream fields(line);
    std::string range;
    std::string perms;
    fields >> range >> perms;
    if (starts_with(perms, "---")) continue;
    const std::size_t dash = range.find('-');
    const unsigned long begin = std::stoul(range.substr(0, dash), nullptr, 16);
    const unsigned long end = std::stoul(range.substr(dash + 1), nullptr, 16);
    total += static_cast<long>((end - begin) / 1024);
  }
  return total;
}

/// Every connection runs on its own thread; a finished one must be joined
/// as the server goes on, or each request leaves a thread stack mapped
/// (about 8 MB of address space) until shutdown.
TEST(Serve, ServerReapsFinishedConnectionThreads) {
  SKIP_WITHOUT_WORKER();
  if (mapped_kb() < 0) GTEST_SKIP() << "no /proc/self/maps";
  Scheduler scheduler(fast_options(1));
  ServerOptions server_options;
  server_options.socket_path = temp_socket_path("reap");
  server_options.poll_ms = 50;
  ServeServer server(&scheduler, server_options);

  const long before_kb = mapped_kb();
  for (int i = 0; i < 300; ++i) {
    const Json reply = job_list(server.endpoint());
    ASSERT_EQ(reply.at("type").as_string(), "list_reply");
  }
  const long grown_kb = mapped_kb() - before_kb;

  EXPECT_LT(grown_kb, 256 * 1024)
      << "300 list requests grew the address space by " << grown_kb / 1024
      << " MB";
  server.shutdown();
}

/// A vanished client (EOF on the submit connection) cancels its job so an
/// abandoned tenant cannot keep burning the shared fleet.
TEST(Serve, ClientDisconnectCancelsJob) {
  SKIP_WITHOUT_WORKER();
  Scheduler scheduler(fast_options(1));
  ServerOptions server_options;
  server_options.socket_path = temp_socket_path("eof");
  server_options.poll_ms = 50;
  ServeServer server(&scheduler, server_options);

  std::uint64_t job = 0;
  {
    ServeClient client(server.endpoint());
    const auto outcome = client.submit(fault_spec("fault.spin", 2));
    ASSERT_TRUE(outcome.ok()) << outcome.message;
    job = outcome.job;
    // Leaving scope closes the connection mid-job.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto status = scheduler.status(job);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kCancelled) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "disconnect never cancelled the job";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  scheduler.drain();
  server.shutdown();
}

}  // namespace
}  // namespace tvmbo::serve
