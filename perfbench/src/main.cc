// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload tune-sim --seed 1 --seconds 10 --trace 0
//       --run-dir DIR --bin-dir DIR [--spans FILE]
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) spend half the time untraced and half with spans recorded
// around every layer call, then report the per-layer metrics plus the
// tracing overhead (untraced vs traced throughput). The last line of
// stdout is one JSON object: {correct, attempted, failed, metrics}.
// `--setup-only 1` is the driver timing its own set-up in a fresh process.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "tune-sim|jit-cold|serve-mix --seed N --seconds S "
               "--trace 0|1 --run-dir DIR --bin-dir DIR [--spans FILE]\n");
  std::exit(2);
}

/// Every round does the same work, so rounds differ only by what the host
/// did meanwhile. On a shared 4-vCPU VM a round's time follows the CPU the
/// hypervisor steals from it (serve-mix rounds of 0.9 s took 1.9 s at 28%
/// steal). With at least this many rounds, only the half with the least
/// steal per second count.
constexpr std::size_t kMinRoundsToFilter = 10;

void keep_calm_rounds(Pass& pass) {
  pass.kept_rounds = pass.rounds;
  if (pass.rounds < kMinRoundsToFilter) return;
  std::vector<std::size_t> order(pass.rounds);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pass.round_steal_per_s[a] <
                            pass.round_steal_per_s[b];
                   });
  order.resize(pass.rounds / 2);
  for (std::vector<double>* values :
       {&pass.round_throughput, &pass.round_p50_ms, &pass.round_tail_ms}) {
    std::vector<double> kept;
    for (std::size_t i : order) kept.push_back((*values)[i]);
    *values = std::move(kept);
  }
  pass.kept_rounds = order.size();
}

/// Runs whole rounds while another one is expected to fit in `seconds`
/// (always at least one).
Pass run_pass(Workload& workload, double seconds, Tracer* tracer) {
  Pass pass;
  const double start = now_s();
  while (pass.rounds == 0 ||
         (now_s() - start) * static_cast<double>(pass.rounds + 1) /
                 static_cast<double>(pass.rounds) <=
             seconds) {
    const std::size_t ops_before = pass.ops;
    const double busy_before = pass.busy_s;
    const double steal_before = host_steal_ticks();
    const double round_start = now_s();
    pass.fingerprints.push_back(workload.round(pass, tracer));
    pass.round_steal_per_s.push_back((host_steal_ticks() - steal_before) /
                                     (now_s() - round_start));
    pass.samples_per_round = pass.latency_ms.size();
    pass.tail_p = tail_percentile_for(pass.samples_per_round);
    pass.round_throughput.push_back(
        static_cast<double>(pass.ops - ops_before) /
        (pass.busy_s - busy_before));
    pass.round_p50_ms.push_back(median(pass.latency_ms));
    pass.round_tail_ms.push_back(percentile(pass.latency_ms, pass.tail_p));
    pass.latency_ms.clear();
    if (pass.rounds == 0) pass.peak_rss_mb = workload.peak_rss_mb();
    ++pass.rounds;
  }
  keep_calm_rounds(pass);
  return pass;
}

/// JSON number with every significant digit of the double.
std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Set-up time as a user meets it: a fresh driver process is started with
/// --setup-only, runs setup() and reports "ready"; the time from spawn to
/// that line is one sample. The child stops (untimed) when its stdin closes.
std::vector<double> time_setups(Workload& workload,
                                const RunOptions& options) {
  std::vector<double> setups;
  for (int i = 0; i < workload.setup_repeats(); ++i) {
    Child child;
    const double start = now_s();
    child.start({options.self, "--workload", options.workload, "--seed",
                 std::to_string(options.seed), "--seconds", "1", "--trace",
                 "0", "--run-dir",
                 options.run_dir + "/setup" + std::to_string(i), "--bin-dir",
                 options.bin_dir, "--setup-only", "1"});
    const std::string line = child.read_line();
    setups.push_back(now_s() - start);
    if (line != "ready") throw std::runtime_error("set-up process failed");
  }
  return setups;
}

/// --setup-only: set up, report readiness, and stay up (holding whatever
/// setup started) until stdin closes.
int setup_only(Workload& workload) {
  workload.setup();
  std::printf("ready\n");
  std::fflush(stdout);
  char buf[64];
  while (std::fread(buf, 1, sizeof(buf), stdin) > 0) {
  }
  workload.teardown();
  return 0;
}

int run(const RunOptions& options, const std::string& spans_path) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "tune-sim") workload = make_tune_sim(options);
  if (options.workload == "jit-cold") workload = make_jit_cold(options);
  if (options.workload == "serve-mix") workload = make_serve_mix(options);
  if (!workload) usage();
  if (options.setup_only) return setup_only(*workload);

  Report report;
  const std::vector<double> setups = time_setups(*workload, options);
  workload->setup();
  const double setup_s = median(setups);
  std::printf("setup: median %.6f s over %zu fresh processes (first %.6f s)\n",
              setup_s, setups.size(), setups.front());

  Tracer tracer;
  const Pass untraced = run_pass(
      *workload, options.trace ? options.seconds / 2 : options.seconds,
      nullptr);
  Pass traced;
  if (options.trace) traced = run_pass(*workload, options.seconds / 2, &tracer);

  std::vector<std::string> fingerprints = untraced.fingerprints;
  fingerprints.insert(fingerprints.end(), traced.fingerprints.begin(),
                      traced.fingerprints.end());
  bool same_work = true;
  for (const std::string& fp : fingerprints) {
    same_work = same_work && fp == fingerprints.front();
  }
  report.check(same_work, "rounds of one seed did different work");
  workload->check(report);
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;

  const double throughput = median(untraced.round_throughput);
  if (!options.trace) {
    report.e2e("throughput_per_s", throughput, "1/s");
    report.e2e("latency_p50_ms", median(untraced.round_p50_ms), "ms");
    report.e2e("latency_tail_ms", median(untraced.round_tail_ms), "ms");
    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", untraced.peak_rss_mb, "MB");
  } else {
    workload->layers(tracer, traced, report);
    const double traced_tp = median(traced.round_throughput);
    report.layer("trace.overhead_pct", (throughput / traced_tp - 1.0) * 100.0,
                 "%");
    std::printf("tracing: untraced %.3f ops/s vs traced %.3f ops/s\n",
                throughput, traced_tp);
    if (!spans_path.empty()) tracer.write_jsonl(spans_path);
  }
  workload->notes(report);
  workload->teardown();

  std::printf("workload %s seed %llu: %zu untraced round(s) of %zu ops",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), untraced.rounds,
              untraced.ops / untraced.rounds);
  if (options.trace) std::printf(", %zu traced round(s)", traced.rounds);
  std::printf("\nwork fingerprint: %s\n", fingerprints.front().c_str());
  std::printf("latency: p50 and p%g of %zu samples per round, median over "
              "%zu of %zu rounds (least host steal)\n",
              untraced.tail_p, untraced.samples_per_round,
              untraced.kept_rounds, untraced.rounds);
  std::printf("failed_ratio: %.6f (%llu failed / %llu attempted)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics = report.end_to_end;
  metrics.insert(metrics.end(), report.per_layer.begin(),
                 report.per_layer.end());
  for (const Metric& metric : metrics) {
    std::printf("%-28s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.self = argv[0];
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) perfbench::usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else if (arg == "--bin-dir") {
      options.bin_dir = value;
    } else if (arg == "--setup-only") {
      options.setup_only = value == "1";
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      perfbench::usage();
    }
  }
  if (options.run_dir.empty() || options.bin_dir.empty() ||
      options.seconds <= 0.0) {
    perfbench::usage();
  }
  try {
    std::filesystem::remove_all(options.run_dir);
    std::filesystem::create_directories(options.run_dir);
    return perfbench::run(options, spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
