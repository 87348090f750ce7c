// tvmbo_serve: multi-tenant tuning-as-a-service daemon.
//
// Hosts one shared elastic worker fleet plus the serve scheduler and a
// socket front end, then serves concurrent tuning jobs submitted by
// tvmbo_client until SIGTERM/SIGINT, at which point it drains: stops
// admitting, finishes in-flight trials, cancels unfinished jobs, and
// exits.
//
//   # Unix-domain socket daemon with 4 workers and a shared perf db:
//   tvmbo_serve --socket /tmp/tvmbo.sock --workers 4 --db perf.jsonl
//
//   # Loopback TCP on an ephemeral port (printed on stdout):
//   tvmbo_serve --tcp 0 --workers 2
//
// Options:
//   --socket PATH    unix-domain socket path (default transport)
//   --tcp PORT       loopback TCP instead (0 = ephemeral)
//   --workers N      worker fleet size (default 2)
//   --db FILE        global cross-tenant JSONL perf database; existing
//                    records also warm the config_lookup cache
//   --model FILE     saved transfer model (tvmbo_transfer train) backing
//                    config_lookup's predicted-top-k fallback
//   --trace FILE     lifecycle/trial trace log (JSONL)
//   --max-active N   global active-job cap (default 16, 0 = unlimited)
//   --tenant-quota N per-tenant active-job cap (default 4, 0 = unlimited)
//   --max-budget N   per-job evaluation budget ceiling (default 10000)
//   --worker-bin P   worker executable override (else auto-resolved)
//
// Prints "serving on <endpoint>" once ready (CI and scripts wait for
// it). Exit status: 0 on clean drain, 2 on usage errors.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>

#include "common/string_util.h"
#include "runtime/trace_log.h"
#include "serve/scheduler.h"
#include "serve/server.h"

using namespace tvmbo;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --tcp PORT) [--workers N] "
               "[--db FILE] [--model FILE] [--trace FILE] [--max-active N] "
               "[--tenant-quota N] [--max-budget N] [--worker-bin P]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions server_opts;
  serve::SchedulerOptions sched_opts;
  std::string trace_path;
  bool have_endpoint = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A numeric flag's whole value must parse, or it is a usage error.
    auto number = [&](auto& out) {
      const std::string text = value();
      const auto parsed = parse_number<std::decay_t<decltype(out)>>(text);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n",
                     text.c_str(), arg.c_str());
        usage(argv[0]);
      }
      out = *parsed;
    };
    if (arg == "--socket") {
      server_opts.transport = "unix";
      server_opts.socket_path = value();
      have_endpoint = true;
    } else if (arg == "--tcp") {
      server_opts.transport = "tcp";
      number(server_opts.tcp_port);
      have_endpoint = true;
    } else if (arg == "--workers") {
      number(sched_opts.pool.num_workers);
    } else if (arg == "--db") {
      sched_opts.perf_db_path = value();
    } else if (arg == "--model") {
      sched_opts.transfer_model_path = value();
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--max-active") {
      number(sched_opts.max_active_jobs);
    } else if (arg == "--tenant-quota") {
      number(sched_opts.max_jobs_per_tenant);
    } else if (arg == "--max-budget") {
      number(sched_opts.max_budget);
    } else if (arg == "--worker-bin") {
      sched_opts.pool.worker_binary = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (!have_endpoint || sched_opts.pool.num_workers == 0) usage(argv[0]);

  std::unique_ptr<runtime::TraceLog> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<runtime::TraceLog>(trace_path);
    sched_opts.trace = trace.get();
  }

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // vanished clients surface as EPIPE

  serve::Scheduler scheduler(std::move(sched_opts));
  serve::ServeServer server(&scheduler, server_opts);

  std::printf("serving on %s\n", server.endpoint().c_str());
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "draining...\n");
  // Drain first so in-flight jobs emit terminal events while their
  // client connections still exist, then tear down the socket front.
  scheduler.drain();
  server.shutdown();
  return 0;
}
