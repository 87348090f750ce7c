#include "bench.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

double now_s() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& field : fields) in >> field;
  return in && cpu == "cpu" ? fields[7] : 0.0;
}

void Tracer::add(std::string name, std::int64_t op, double start,
                 double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), op, start, end});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mutex_);
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"op\":%lld,\"start_s\":%.9f,"
                  "\"end_s\":%.9f}\n",
                  span.name.c_str(), static_cast<long long>(span.op),
                  span.start, span.end);
    out << line;
  }
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double tail_percentile_for(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

void Fingerprint::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

void Fingerprint::add(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ull;
  }
  add(static_cast<std::uint64_t>(text.size()));
}

void Fingerprint::add(const std::vector<std::int64_t>& values) {
  for (std::int64_t v : values) add(static_cast<std::uint64_t>(v));
  add(static_cast<std::uint64_t>(values.size()));
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back(Metric{name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer.push_back(Metric{name, value, unit});
}

void Child::start(const std::vector<std::string>& args, int stop_signal) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  stdin_ = in[1];
  stdout_ = out[0];
  if (rc != 0) {
    stop();
    throw std::runtime_error("cannot start " + args[0] + ": " +
                             std::strerror(rc));
  }
  pid_ = pid;
  stop_signal_ = stop_signal;
}

std::string Child::read_line() {
  std::string line;
  char c = 0;
  while (::read(stdout_, &c, 1) == 1 && c != '\n') line += c;
  return line;
}

void Child::stop() {
  if (stdin_ >= 0) ::close(stdin_);
  stdin_ = -1;
  if (pid_ > 0) {
    if (stop_signal_ != 0) ::kill(pid_, stop_signal_);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_ >= 0) ::close(stdout_);
  stdout_ = -1;
}

double Workload::peak_rss_mb() { return process_peak_rss_mb(); }

double process_peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
