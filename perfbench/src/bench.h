// Shared scaffolding of the repository benchmark: run options, the
// in-memory span recorder used by traced passes, sample statistics, the
// work fingerprint, and the Workload interface the driver runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/measure.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

/// CPU time the hypervisor gave to other guests while this VM's CPUs wanted
/// to run ("steal" in /proc/stat, summed over CPUs), in clock ticks; 0 when
/// the host does not report it.
double host_steal_ticks();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  ///< fresh per-run working directory
  std::string bin_dir;  ///< directory holding the benchmark binaries
  std::string self;     ///< path of the driver binary
  bool setup_only = false;
};

/// One timed interval at a layer boundary. `op` groups the spans of one
/// operation (a trial, a verdict, a job).
struct Span {
  std::string name;
  std::int64_t op = -1;
  double start = 0.0;
  double end = 0.0;
  double ms() const { return (end - start) * 1e3; }
};

/// Thread-safe in-memory span log, written out once at the end of a run.
class Tracer {
 public:
  void add(std::string name, std::int64_t op, double start, double end);
  /// Durations (ms) of every span named `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const;
  std::vector<Span> spans() const;
  /// Writes one JSON object per span to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs `fn`, recording its duration under `name` when `tracer` is set.
template <typename Fn>
decltype(auto) traced(Tracer* tracer, const char* name, std::int64_t op,
                      Fn&& fn) {
  struct Record {
    Tracer* tracer;
    const char* name;
    std::int64_t op;
    double start;
    ~Record() {
      if (tracer != nullptr) tracer->add(name, op, start, now_s());
    }
  } record{tracer, name, op, tracer != nullptr ? now_s() : 0.0};
  return fn();
}

double median(std::vector<double> values);
/// Linearly interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/// The tail percentile reported for `n` samples: the highest of
/// 99.9/99/95/90/75/50 that leaves at least ten samples beyond it.
double tail_percentile_for(std::size_t n);

/// FNV-1a accumulator over the work a round performed.
class Fingerprint {
 public:
  void add(std::uint64_t value);
  void add(const std::string& text);
  void add(const std::vector<std::int64_t>& values);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// A named metric value with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< extra human-readable lines

  bool correct() const { return check_failures.empty(); }
  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

/// What the rounds of one pass did. A round adds its ops, busy time and
/// per-op latencies; the driver turns each round's latencies into that
/// round's statistics and clears them, so memory stays flat however many
/// rounds run. Reported values are medians over the rounds kept: all of
/// them, or with ten or more, the half with the least host steal.
struct Pass {
  std::size_t ops = 0;             ///< trials, verdicts or serve trials
  double busy_s = 0.0;             ///< wall-clock the ops took
  std::vector<double> latency_ms;  ///< this round's, per op (per job: serve)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;
  std::size_t samples_per_round = 0;
  double tail_p = 50.0;  ///< percentile behind round_tail_ms
  double peak_rss_mb = 0.0;  ///< high-water mark after the first round
  std::vector<double> round_throughput, round_p50_ms, round_tail_ms;
  std::vector<double> round_steal_per_s;  ///< host steal ticks per second
  std::size_t kept_rounds = 0;
  std::vector<std::string> fingerprints;  ///< one per round
};

/// One benchmark workload. The driver times setup() in several fresh
/// processes, then sets up once itself and calls round() repeatedly;
/// every round does the same seed-fixed work.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first op.
  virtual void setup() = 0;
  /// How many fresh processes the driver times through setup().
  virtual int setup_repeats() const { return 9; }
  /// One round of ops. Appends per-op latencies and counts to `pass`,
  /// records spans when `tracer` is set, and returns the round's work
  /// fingerprint.
  virtual std::string round(Pass& pass, Tracer* tracer) = 0;
  /// Output checks, run outside the timed region after all rounds.
  virtual void check(Report& report) = 0;
  /// Per-layer metrics from the traced pass's spans and counters.
  virtual void layers(const Tracer& tracer, const Pass& traced,
                      Report& report) = 0;
  /// Workload-specific result lines (printed, not gated).
  virtual void notes(Report& report) {}
  /// Peak resident memory of every process the workload runs (MiB). Read
  /// after the first round, so it measures a fixed amount of work.
  virtual double peak_rss_mb();
  /// Stops every process the workload started and waits for it.
  virtual void teardown() {}
};

/// Forwards to a real device, timing each measure call.
class TracedDevice final : public tvmbo::runtime::Device {
 public:
  TracedDevice(tvmbo::runtime::Device& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string name() const override { return inner_.name(); }
  tvmbo::runtime::MeasureResult measure(
      const tvmbo::runtime::MeasureInput& input,
      const tvmbo::runtime::MeasureOption& option) override {
    return traced(tracer_, "runtime.device_measure", -1,
                  [&] { return inner_.measure(input, option); });
  }
  std::size_t max_concurrent_measurements() const override {
    return inner_.max_concurrent_measurements();
  }

 private:
  tvmbo::runtime::Device& inner_;
  Tracer* tracer_;
};

/// A child process with a pipe on its stdin and one on its stdout. stop()
/// asks the child to end by closing its stdin and, when a stop signal was
/// given, sending that signal; it then waits for the exit, killing the
/// child if it has not ended within 10 s.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { stop(); }

  /// Starts args[0] (a path) with args[1..]. Throws when it cannot start.
  void start(const std::vector<std::string>& args, int stop_signal = 0);
  /// Reads one line from the child's stdout (blocking; "" at EOF).
  std::string read_line();
  void stop();
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  int stop_signal_ = 0;
  int stdin_ = -1;
  int stdout_ = -1;
};

std::unique_ptr<Workload> make_tune_sim(const RunOptions& options);
std::unique_ptr<Workload> make_jit_cold(const RunOptions& options);
std::unique_ptr<Workload> make_serve_mix(const RunOptions& options);

/// Peak resident set of a process in MiB (VmHWM; 0 = this process).
double process_peak_rss_mb(int pid = 0);

}  // namespace perfbench
