// serve-mix: the tvmbo_serve daemon with 2 workers on its default unix
// fleet. Two tenant connections each submit short autotvm-random jobs
// (closure backend, mini sizes) one after another, so config sequences are
// fixed by the seed, while a third client sends config_lookup open-loop at
// a fixed rate for as long as tenant jobs run, each lookup timed from when
// it was due. Scheduler admission, dispatch, the distd worker hop, the
// PerfDatabase appender and the lookup cache do the work; lookups (reads)
// run beside trial completions that feed the cache (writes). The only
// workload for serve and distd.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "distd/protocol.h"
#include "distd/worker_pool.h"
#include "kernels/polybench.h"
#include "kernels/te_programs.h"
#include "runtime/cpu_device.h"
#include "runtime/perf_db.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "transfer/lookup.h"

namespace perfbench {
namespace {

using namespace tvmbo;

constexpr int kWorkers = 2;
constexpr std::size_t kTenants = 2;
constexpr std::size_t kJobsPerTenant = 64;
constexpr std::size_t kBudget = 4;
constexpr double kLookupRate = 100.0;    ///< config_lookup frames per second
constexpr double kLookupLimitMs = 5.0;   ///< latency limit on the tail
constexpr std::size_t kProbeInputs = 24; ///< direct distd/db/lookup probes
const char* const kKernels[] = {"gemm", "lu", "cholesky", "3mm"};

/// Child pids of `pid`, from /proc/<pid>/task/<tid>/children.
std::vector<int> child_pids(int pid) {
  std::vector<int> pids;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return pids;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(task_dir + "/" + entry->d_name + "/children");
    int child = 0;
    while (in >> child) pids.push_back(child);
  }
  ::closedir(dir);
  return pids;
}

/// What one tenant job looked like from the client side.
struct JobTrace {
  std::string kernel;
  double submit = 0.0, accept = 0.0, start = 0.0, complete = 0.0;
  std::vector<double> events;  ///< job_start then each job_trial arrival
  std::map<std::int64_t, std::vector<std::int64_t>> trials;  ///< i -> tiles
  std::size_t invalid = 0;
  std::int64_t completed = -1;
  std::string error;  ///< error frame / non-complete terminal, if any
};

struct LookupTrace {
  double due = 0.0, sent = 0.0, done = 0.0;
  double server_us = 0.0;
  std::string kernel;
  bool ok = false;
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(const RunOptions& options) : options_(options) {}

  int setup_repeats() const override { return 5; }

  void setup() override {
    socket_ = options_.run_dir + "/serve.sock";
    db_path_ = options_.run_dir + "/perf.jsonl";
    endpoint_ = "unix:" + socket_;
    daemon_ = std::make_unique<Child>();
    // tvmbo_serve drains in-flight work and exits on SIGTERM.
    daemon_->start({options_.bin_dir + "/tvmbo_serve", "--socket", socket_,
                    "--workers", std::to_string(kWorkers), "--db", db_path_,
                    "--worker-bin", options_.bin_dir + "/tvmbo_worker"},
                   SIGTERM);
    const std::string ready = daemon_->read_line();
    if (ready.rfind("serving on ", 0) != 0) {
      throw std::runtime_error("daemon did not start: '" + ready + "'");
    }
    // Set-up ends at the daemon's first successful reply.
    serve::ServeClient client(endpoint_);
    const Json reply = client.request(serve::job_list_frame());
    if (distd::frame_type(reply) != "list_reply") {
      throw std::runtime_error("daemon's first reply was not list_reply");
    }
  }

  std::string round(Pass& pass, Tracer* tracer) override {
    std::vector<std::vector<JobTrace>> jobs(kTenants);
    std::vector<LookupTrace> lookups;
    std::atomic<std::size_t> tenants_left{kTenants};
    const double start = now_s();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([this, t, &jobs, &tenants_left] {
        run_tenant(t, jobs[t]);
        --tenants_left;
      });
    }
    threads.emplace_back([this, start, &lookups, &tenants_left] {
      run_lookups(start, tenants_left, lookups);
    });
    for (std::thread& thread : threads) thread.join();
    // Busy time is the tenant side's: round start to the last job_complete.
    double end = start;
    for (const std::vector<JobTrace>& tenant : jobs) {
      for (const JobTrace& job : tenant) end = std::max(end, job.complete);
    }
    pass.busy_s += end - start;

    Fingerprint fp;
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (const JobTrace& job : jobs[t]) {
        pass.latency_ms.push_back((job.complete - job.submit) * 1e3);
        pass.ops += job.trials.size();
        pass.attempted += kBudget;
        pass.failed += kBudget - std::min(kBudget, job.trials.size()) +
                       job.invalid;
        trials_done_ += job.trials.size();
        // Trials of one job may complete out of order, so the fingerprint
        // takes the job's configs as a sorted set.
        fp.add(job.kernel);
        std::vector<std::vector<std::int64_t>> configs;
        for (const auto& entry : job.trials) configs.push_back(entry.second);
        std::sort(configs.begin(), configs.end());
        for (const std::vector<std::int64_t>& tiles : configs) fp.add(tiles);
        const bool complete = job.error.empty() &&
                              job.completed == static_cast<std::int64_t>(kBudget) &&
                              job.trials.size() == kBudget;
        if (!complete) {
          problems_.push_back(job.kernel + " job: completed " +
                              std::to_string(job.completed) + ", " +
                              std::to_string(job.trials.size()) +
                              " trial frames, error '" + job.error + "'");
        }
        if (tracer != nullptr) {
          tracer->add("serve.accept", -1, job.submit, job.accept);
          tracer->add("serve.queue", -1, job.accept, job.start);
          for (std::size_t e = 1; e < job.events.size(); ++e) {
            tracer->add("serve.trial_gap", -1, job.events[e - 1],
                        job.events[e]);
          }
        }
      }
    }
    for (const LookupTrace& lookup : lookups) {
      ++pass.attempted;
      if (!lookup.ok) {
        ++pass.failed;
        problems_.push_back("config_lookup for " + lookup.kernel +
                            " answered with an error");
      }
      lookup_ms_.push_back((lookup.done - lookup.due) * 1e3);
      late_ms_.push_back((lookup.sent - lookup.due) * 1e3);
      if (tracer != nullptr) {
        server_us_.push_back(lookup.server_us);
        wire_us_.push_back((lookup.done - lookup.sent) * 1e6 -
                           lookup.server_us);
      }
    }
    if (tracer != nullptr && !probed_) {
      probe_layers(jobs, *tracer);
      probed_ = true;
    }
    return fp.hex();
  }

  void check(Report& report) override {
    for (const std::string& problem : problems_) {
      report.check(false, "serve-mix: " + problem);
    }
    // The shared database must hold one record per completed trial.
    std::ifstream in(db_path_);
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) lines += line.empty() ? 0 : 1;
    report.check(lines == trials_done_,
                 "serve-mix: perf database holds " + std::to_string(lines) +
                     " records for " + std::to_string(trials_done_) +
                     " trials");
  }

  void layers(const Tracer& tracer, const Pass&, Report& report) override {
    report.layer("serve.accept_ms", median(tracer.durations_ms("serve.accept")),
                 "ms");
    report.layer("serve.queue_ms", median(tracer.durations_ms("serve.queue")),
                 "ms");
    report.layer("serve.trial_gap_ms",
                 median(tracer.durations_ms("serve.trial_gap")), "ms");
    report.layer("serve.lookup_server_us", median(server_us_), "us");
    report.layer("serve.lookup_wire_us", median(wire_us_), "us");
    report.layer("transfer.lookup_us",
                 median(tracer.durations_ms("transfer.lookup")) * 1e3, "us");
    report.layer("distd.leased_measure_ms",
                 median(tracer.durations_ms("distd.leased_measure")), "ms");
    report.layer("distd.hop_overhead_ms", median(hop_ms_), "ms");
    report.layer("runtime.db_append_us",
                 median(tracer.durations_ms("runtime.db_append")) * 1e3, "us");
    report.layer("distd.spawn_ms", median(tracer.durations_ms("distd.spawn")),
                 "ms");
    lookup_metrics(report, /*as_layers=*/true);
  }

  void notes(Report& report) override { lookup_metrics(report, false); }

  double peak_rss_mb() override {
    double total = process_peak_rss_mb();
    if (daemon_ && daemon_->pid() > 0) {
      total += process_peak_rss_mb(daemon_->pid());
      for (int worker : child_pids(daemon_->pid())) {
        total += process_peak_rss_mb(worker);
      }
    }
    return total;
  }

  void teardown() override { daemon_.reset(); }

 private:
  /// One tenant: its jobs back to back, each on a fresh connection that
  /// becomes the job's event stream.
  void run_tenant(std::size_t tenant, std::vector<JobTrace>& out) {
    for (std::size_t j = 0; j < kJobsPerTenant; ++j) {
      JobTrace job;
      serve::JobSpec spec;
      spec.tenant = "tenant" + std::to_string(tenant);
      spec.kernel = kKernels[(j + tenant) % std::size(kKernels)];
      spec.size = "mini";
      spec.strategy = "autotvm-random";
      spec.budget = kBudget;
      spec.seed = options_.seed * 1000 + tenant * 100 + j;
      spec.backend = "closure";
      spec.repeat = 1;
      job.kernel = spec.kernel;
      try {
        serve::ServeClient client(endpoint_);
        job.submit = now_s();
        const serve::ServeClient::SubmitOutcome outcome = client.submit(spec);
        job.accept = now_s();
        if (!outcome.ok()) {
          job.error = outcome.error_code;
        }
        while (outcome.ok()) {
          const std::optional<Json> frame = client.next_event(30000);
          if (!frame.has_value()) {
            job.error = "timeout";
            break;
          }
          if (distd::frame_type(*frame) == "error") {
            job.error = frame->at("code").as_string();
            break;
          }
          const std::string event = frame->at("event").as_string();
          const double t = now_s();
          if (event == "job_start") {
            job.start = t;
            job.events.push_back(t);
          } else if (event == "job_trial") {
            job.events.push_back(t);
            std::vector<std::int64_t> tiles;
            for (const Json& v : frame->at("tiles").as_array()) {
              tiles.push_back(v.as_int());
            }
            job.trials[frame->at("i").as_int()] = std::move(tiles);
            if (!frame->at("valid").as_bool()) ++job.invalid;
          } else if (serve::is_terminal_event(event)) {
            job.complete = t;
            if (event == "job_complete") {
              job.completed = frame->at("completed").as_int();
            } else {
              job.error = event;
            }
            break;
          }
        }
      } catch (const std::exception& e) {
        job.error = e.what();
      }
      if (job.complete == 0.0) job.complete = now_s();
      out.push_back(std::move(job));
    }
  }

  /// Open-loop config_lookup generator: lookup k is due at start + k/rate
  /// whether or not earlier ones have returned late. It sends while any
  /// tenant still has jobs to run.
  void run_lookups(double start, const std::atomic<std::size_t>& tenants_left,
                   std::vector<LookupTrace>& out) {
    for (std::size_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) / kLookupRate;
      const double wait = due - now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      if (tenants_left == 0) break;
      LookupTrace& lookup = out.emplace_back();
      lookup.due = due;
      serve::LookupSpec spec;
      spec.kernel = kKernels[k % std::size(kKernels)];
      spec.size = "mini";
      lookup.kernel = spec.kernel;
      lookup.sent = now_s();
      try {
        const Json reply = serve::config_lookup(endpoint_, spec);
        lookup.done = now_s();
        lookup.ok = distd::frame_type(reply) == "lookup_reply";
        if (lookup.ok) lookup.server_us = reply.at("latency_us").as_double();
      } catch (const std::exception&) {
        lookup.done = now_s();
      }
    }
  }

  /// The finer per-layer splits, by calling each layer directly on inputs
  /// the round just used: an in-process worker pool (spawn and leased
  /// measure), the same trials measured in-process, the perf-db appender,
  /// and the lookup cache loaded from the daemon's database.
  void probe_layers(const std::vector<std::vector<JobTrace>>& jobs,
                    Tracer& tracer) {
    std::vector<std::pair<std::string, std::vector<std::int64_t>>> inputs;
    for (std::size_t j = 0; inputs.size() < kProbeInputs; ++j) {
      const JobTrace& job = jobs[j % kTenants][(j / kTenants) %
                                                kJobsPerTenant];
      if (job.trials.empty()) break;
      inputs.emplace_back(job.kernel, job.trials.begin()->second);
    }

    distd::WorkerPoolOptions pool_options;
    pool_options.num_workers = kWorkers;
    pool_options.worker_binary = options_.bin_dir + "/tvmbo_worker";
    std::unique_ptr<distd::WorkerPool> pool;
    traced(&tracer, "distd.spawn", -1, [&] {
      pool = std::make_unique<distd::WorkerPool>(pool_options);
    });
    runtime::CpuDevice device;
    runtime::MeasureOption option;
    option.repeat = 1;
    for (const auto& [kernel, tiles] : inputs) {
      const runtime::Workload workload =
          kernels::make_workload(kernel, kernels::Dataset::kMini);
      distd::MeasureRequest request;
      request.workload = workload;
      request.tiles = tiles;
      request.backend = runtime::ExecBackend::kClosure;
      request.option = option;
      std::optional<distd::WorkerPool::Lease> lease = pool->try_acquire();
      if (!lease.has_value()) continue;
      const double leased_start = now_s();
      pool->measure_leased(*lease, request);
      const double leased_end = now_s();
      pool->release(*lease);
      tracer.add("distd.leased_measure", -1, leased_start, leased_end);
      const runtime::MeasureInput input = kernels::make_te_measure_input(
          kernels::make_te_kernel_data(kernel, workload.dims), workload,
          tiles, runtime::ExecBackend::kClosure);
      const double local_start = now_s();
      device.measure(input, option);
      const double local_end = now_s();
      hop_ms_.push_back(((leased_end - leased_start) -
                         (local_end - local_start)) * 1e3);
    }
    pool.reset();

    const runtime::PerfDatabase db = runtime::PerfDatabase::load(db_path_);
    runtime::PerfDbAppender appender(options_.run_dir + "/append-probe.jsonl");
    for (std::size_t i = 0; i < db.size() && i < 4 * kProbeInputs; ++i) {
      traced(&tracer, "runtime.db_append", -1,
             [&] { appender.append(db.record(i)); });
    }
    transfer::ConfigLookup lookup;
    lookup.load_database(db);
    for (std::size_t i = 0; i < 4 * kProbeInputs; ++i) {
      traced(&tracer, "transfer.lookup", -1, [&] {
        return lookup.lookup(kKernels[i % std::size(kKernels)], "mini", 1, 1);
      });
    }
  }

  void lookup_metrics(Report& report, bool as_layers) {
    const double tail_p = tail_percentile_for(lookup_ms_.size());
    const double p50_us = median(lookup_ms_) * 1e3;
    const double tail_us = percentile(lookup_ms_, tail_p) * 1e3;
    const double late_ms =
        late_ms_.empty() ? 0.0
                         : *std::max_element(late_ms_.begin(), late_ms_.end());
    if (as_layers) {
      report.layer("serve.lookup_p50_us", p50_us, "us");
      report.layer("serve.lookup_tail_us", tail_us, "us");
      report.layer("serve.lookup_late_ms", late_ms, "ms");
      return;
    }
    std::size_t over = 0;
    for (double ms : lookup_ms_) over += ms > kLookupLimitMs ? 1 : 0;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "lookups: %zu at %.0f/s open-loop; lookup_p50_us %.1f us, "
                  "lookup_tail_us (p%g) %.1f us, limit %.1f ms (%zu over), "
                  "lookup_late_ms %.3f ms",
                  lookup_ms_.size(), kLookupRate, p50_us, tail_p, tail_us,
                  kLookupLimitMs, over, late_ms);
    report.note(line);
  }

  RunOptions options_;
  std::unique_ptr<Child> daemon_;
  bool probed_ = false;
  std::string socket_, db_path_, endpoint_;
  std::size_t trials_done_ = 0;
  std::vector<std::string> problems_;
  std::vector<double> lookup_ms_, late_ms_;
  std::vector<double> server_us_, wire_us_, hop_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const RunOptions& options) {
  return std::make_unique<ServeMix>(options);
}

}  // namespace perfbench
