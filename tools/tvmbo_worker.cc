// tvmbo_worker: out-of-process measurement worker (distd subsystem).
//
//   tvmbo_worker --connect unix:/tmp/tvmbo-distd-xyz/pool.sock
//                --worker-id 0 --heartbeat-ms 1000
//
// Spawned by the tuner's WorkerPool (--runner proc); connects back over
// the given endpoint, announces itself, and serves length-prefixed JSON
// measure requests until told to shut down. The endpoint syntax also
// accepts tcp:<ipv4>:<port>, so the same binary can be started by hand on
// another host against a TCP-listening pool.
//
// Options:
//   --connect E      endpoint to dial (required)
//   --worker-id N    pool slot index echoed in hello/heartbeats (default 0)
//   --heartbeat-ms N liveness interval while measuring; 0 = off
//                    (default 1000)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

#include "common/string_util.h"
#include "distd/worker.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect unix:<path>|tcp:<ipv4>:<port> "
               "[--worker-id N] [--heartbeat-ms N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tvmbo::distd::WorkerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A numeric flag's whole value must parse, or it is a usage error.
    auto number = [&](auto& out) {
      const std::string text = value();
      const auto parsed =
          tvmbo::parse_number<std::decay_t<decltype(out)>>(text);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n",
                     text.c_str(), flag.c_str());
        usage(argv[0]);
      }
      out = *parsed;
    };
    if (flag == "--connect") config.endpoint = value();
    else if (flag == "--worker-id") number(config.worker_id);
    else if (flag == "--heartbeat-ms") number(config.heartbeat_ms);
    else {
      usage(argv[0]);
    }
  }
  if (config.endpoint.empty()) usage(argv[0]);
  return tvmbo::distd::serve_worker(config);
}
