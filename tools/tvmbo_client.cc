// tvmbo_client: CLI for the tvmbo_serve tuning daemon.
//
//   # Submit a job and stream its progress as JSONL until it finishes:
//   tvmbo_client submit --connect unix:/tmp/tvmbo.sock \
//       --kernel 3mm --size mini --strategy ytopt --budget 40
//
//   # Inspect / control running jobs:
//   tvmbo_client status --connect unix:/tmp/tvmbo.sock --job 3
//   tvmbo_client cancel --connect unix:/tmp/tvmbo.sock --job 3
//   tvmbo_client list   --connect unix:/tmp/tvmbo.sock
//
//   # Instant-config lookup (never dispatches a measurement — answered
//   # from the daemon's cache or its transfer model):
//   tvmbo_client lookup --connect unix:/tmp/tvmbo.sock \
//       --kernel lu --size large --nthreads 1 --topk 3
//
// submit options (defaults in parentheses):
//   --kernel K      polybench kernel, required
//   --size S        dataset (large)
//   --strategy S    ytopt | random | gridsearch | ga | xgb (ytopt)
//   --budget N      max evaluations (100)
//   --nthreads N    != 1 tunes the parallel knobs too (1)
//   --seed N        session seed (2023)
//   --priority N    lane, 0 = most urgent (1)
//   --tenant T      tenant name for quota accounting (default)
//   --backend B     native | jit (native)
//   --repeat N      timed runs per evaluation (1)
//   --timeout S     per-run timeout seconds (0 = none)
//
// submit streams every event frame as one JSON line on stdout. Exit
// status: 0 when the job completes, 3 when it is cancelled, 2 on usage
// or submission errors (quota, bad request, dead daemon).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/logging.h"
#include "common/string_util.h"
#include "distd/protocol.h"
#include "serve/client.h"

using namespace tvmbo;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s submit --connect ENDPOINT --kernel K [opts]\n"
               "       %s status --connect ENDPOINT --job N\n"
               "       %s cancel --connect ENDPOINT --job N\n"
               "       %s list   --connect ENDPOINT\n"
               "       %s lookup --connect ENDPOINT --kernel K "
               "[--size S] [--nthreads N] [--topk N]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

int run_submit(const std::string& endpoint, const serve::JobSpec& spec) {
  serve::ServeClient client(endpoint);
  const auto outcome = client.submit(spec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "submit rejected: %s: %s\n",
                 outcome.error_code.c_str(), outcome.message.c_str());
    return 2;
  }
  std::fprintf(stderr, "job %llu accepted\n",
               static_cast<unsigned long long>(outcome.job));
  for (;;) {
    const auto event = client.next_event(/*timeout_ms=*/1000);
    if (!event.has_value()) continue;
    std::printf("%s\n", event->dump().c_str());
    std::fflush(stdout);
    if (!event->contains("event")) continue;
    const std::string& name = event->at("event").as_string();
    if (name == "job_complete") return 0;
    if (name == "job_cancel") return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  std::string endpoint;
  std::uint64_t job = 0;
  bool have_job = false;
  serve::JobSpec spec;
  std::int64_t topk = 1;

  for (int i = 2; i < argc; ++i) {
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
    if (arg == "--connect") {
      endpoint = value();
    } else if (arg == "--job") {
      number(job);
      have_job = true;
    } else if (arg == "--kernel") {
      spec.kernel = value();
    } else if (arg == "--size") {
      spec.size = value();
    } else if (arg == "--strategy") {
      spec.strategy = value();
    } else if (arg == "--budget") {
      number(spec.budget);
    } else if (arg == "--nthreads") {
      number(spec.nthreads);
    } else if (arg == "--seed") {
      number(spec.seed);
    } else if (arg == "--priority") {
      number(spec.priority);
    } else if (arg == "--tenant") {
      spec.tenant = value();
    } else if (arg == "--backend") {
      spec.backend = value();
    } else if (arg == "--repeat") {
      number(spec.repeat);
    } else if (arg == "--timeout") {
      number(spec.timeout_s);
    } else if (arg == "--topk") {
      number(topk);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (endpoint.empty()) usage(argv[0]);

  try {
    if (command == "submit") {
      if (spec.kernel.empty()) usage(argv[0]);
      return run_submit(endpoint, spec);
    }
    if (command == "status") {
      if (!have_job) usage(argv[0]);
      const auto reply = serve::job_status(endpoint, job);
      if (!reply.has_value()) {
        std::fprintf(stderr, "no job %llu\n",
                     static_cast<unsigned long long>(job));
        return 2;
      }
      std::printf("%s\n", reply->dump().c_str());
      return 0;
    }
    if (command == "cancel") {
      if (!have_job) usage(argv[0]);
      if (!serve::job_cancel(endpoint, job)) {
        std::fprintf(stderr, "no cancellable job %llu\n",
                     static_cast<unsigned long long>(job));
        return 2;
      }
      std::printf("cancelled %llu\n", static_cast<unsigned long long>(job));
      return 0;
    }
    if (command == "list") {
      std::printf("%s\n", serve::job_list(endpoint).dump().c_str());
      return 0;
    }
    if (command == "lookup") {
      if (spec.kernel.empty()) usage(argv[0]);
      serve::LookupSpec lookup;
      lookup.kernel = spec.kernel;
      lookup.size = spec.size;
      lookup.nthreads = spec.nthreads;
      lookup.topk = topk;
      const Json reply = serve::config_lookup(endpoint, lookup);
      std::printf("%s\n", reply.dump().c_str());
      // "none" (no cached record, no model) is still exit 0: the query
      // was valid, the daemon just has nothing to offer yet.
      return distd::frame_type(reply) == "error" ? 2 : 0;
    }
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(argv[0]);
}
