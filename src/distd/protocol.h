// Wire protocol between the tuner's WorkerPool and out-of-process
// measurement workers.
//
// Framing: every message is one length-prefixed JSON object — a 4-byte
// big-endian payload length followed by the UTF-8 serialization. JSON
// keeps the protocol debuggable (a frame dump is readable as-is) and
// reuses the repo's dependency-free parser; the length prefix makes
// message boundaries explicit so a half-written frame from a killed
// worker is detected instead of silently mis-parsed.
//
// Message types ("type" member):
//   hello      worker -> pool   after connecting: {worker, pid}
//   measure    pool  -> worker  a MeasureRequest (one trial)
//   heartbeat  worker -> pool   liveness while a trial is executing
//   result     worker -> pool   the MeasureReply for the current trial
//   shutdown   pool  -> worker  drain and exit cleanly
//
// A MeasureRequest carries everything a worker needs to *reconstruct* the
// trial from scratch — kernel id, dataset dims, tile/annotation vector,
// execution backend, JIT options (incl. the shared artifact-cache
// directory), measure option, seed — because std::function closures in
// MeasureInput cannot cross a process boundary. The worker rebuilds the
// task via kernels::make_task and measures with its own CpuDevice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/artifact_cache.h"
#include "common/json.h"
#include "runtime/exec_backend.h"
#include "runtime/measure.h"

namespace tvmbo::distd {

/// Upper bound on one frame's payload; larger prefixes are treated as a
/// protocol error (a desynchronized or hostile peer).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class FrameStatus {
  kOk,        ///< a complete frame was transferred
  kTimeout,   ///< the deadline expired mid-wait
  kClosed,    ///< the peer closed the connection (EOF)
  kError,     ///< socket error
  kTooLarge,  ///< length prefix exceeds the caller's frame-size limit
  kMalformed, ///< payload arrived but is not a parseable JSON document
};

/// Human-readable name of a FrameStatus (for logs and error frames).
const char* frame_status_name(FrameStatus status);

/// Writes one frame, prefix and payload in one sendmsg call unless the
/// socket buffer splits it (blocking; EPIPE comes back as kClosed, never
/// SIGPIPE).
FrameStatus write_frame(int fd, const Json& message);

/// Reads one frame, waiting at most `timeout_ms` (-1 = forever) for the
/// *whole* frame. On kOk, `*message` holds the parsed object.
///
/// `max_bytes` caps the accepted payload size; a larger length prefix
/// returns kTooLarge *before* any allocation, so a hostile or
/// desynchronized peer cannot make the server reserve gigabytes. After
/// kTooLarge or kMalformed the stream position is inside/past the bad
/// frame — the connection cannot be re-synchronized and must be closed
/// (servers should first send a typed error frame; see serve/protocol).
FrameStatus read_frame(int fd, Json* message, int timeout_ms,
                       std::uint32_t max_bytes = kMaxFrameBytes);

/// "type" member of a parsed frame ("" when absent/not an object).
std::string frame_type(const Json& message);

/// One serialized trial: everything needed to rebuild and measure a
/// configured kernel in another process.
struct MeasureRequest {
  std::uint64_t trial = 0;  ///< pool-assigned dispatch id (trace key)
  runtime::Workload workload;
  std::vector<std::int64_t> tiles;  ///< incl. trailing parallel knobs
  runtime::ExecBackend backend = runtime::ExecBackend::kNative;
  codegen::JitOptions jit;  ///< compiler/flags/cache dir shared with pool
  runtime::MeasureOption option;
  std::uint64_t seed = 0;  ///< session seed (forwarded for provenance)

  Json to_json() const;
  static MeasureRequest from_json(const Json& json);
};

/// The worker's answer to one MeasureRequest.
struct MeasureReply {
  std::uint64_t trial = 0;
  runtime::MeasureResult result;

  Json to_json() const;
  static MeasureReply from_json(const Json& json);
};

Json hello_message(int worker, int pid);
Json heartbeat_message(int worker);
Json shutdown_message();

}  // namespace tvmbo::distd
