#include "distd/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"

namespace tvmbo::distd {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` (>= 0), or -1 for "no deadline".
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Reads exactly `size` bytes, honoring the deadline between chunks.
FrameStatus read_exact(int fd, void* data, std::size_t size,
                       bool has_deadline, Clock::time_point deadline) {
  auto* out = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    pollfd pfd{fd, POLLIN, 0};
    const int wait = remaining_ms(has_deadline, deadline);
    if (has_deadline && wait == 0) return FrameStatus::kTimeout;
    const int rc = ::poll(&pfd, 1, wait);
    if (rc == 0) return FrameStatus::kTimeout;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return FrameStatus::kError;
    }
    const ssize_t n = ::recv(fd, out + done, size - done, 0);
    if (n == 0) return FrameStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == ECONNRESET ? FrameStatus::kClosed
                                 : FrameStatus::kError;
    }
    done += static_cast<std::size_t>(n);
  }
  return FrameStatus::kOk;
}

/// Sends the `left` buffers from `next` in order as one stream, with one
/// sendmsg per attempt, so a reader wakes to all of them at once unless
/// the socket buffer splits them. Advances the buffers past what was sent.
FrameStatus write_all(int fd, iovec* next, std::size_t left) {
  while (left > 0) {
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = left;
    ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return (errno == EPIPE || errno == ECONNRESET) ? FrameStatus::kClosed
                                                     : FrameStatus::kError;
    }
    // Drop what was sent: whole buffers, then the head of a partial one.
    while (left > 0 && static_cast<std::size_t>(n) >= next->iov_len) {
      n -= static_cast<ssize_t>(next->iov_len);
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + n;
      next->iov_len -= static_cast<std::size_t>(n);
    }
  }
  return FrameStatus::kOk;
}

}  // namespace

FrameStatus write_frame(int fd, const Json& message) {
  const std::string payload = message.dump();
  if (payload.size() > kMaxFrameBytes) return FrameStatus::kError;
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  unsigned char prefix[4] = {
      static_cast<unsigned char>(size >> 24),
      static_cast<unsigned char>(size >> 16),
      static_cast<unsigned char>(size >> 8),
      static_cast<unsigned char>(size),
  };
  iovec parts[] = {{prefix, sizeof(prefix)},
                   {const_cast<char*>(payload.data()), payload.size()}};
  return write_all(fd, parts, 2);
}

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTimeout: return "timeout";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kError: return "error";
    case FrameStatus::kTooLarge: return "frame_too_large";
    case FrameStatus::kMalformed: return "malformed_frame";
  }
  return "?";
}

FrameStatus read_frame(int fd, Json* message, int timeout_ms,
                       std::uint32_t max_bytes) {
  const bool has_deadline = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
  unsigned char prefix[4];
  FrameStatus status =
      read_exact(fd, prefix, sizeof(prefix), has_deadline, deadline);
  if (status != FrameStatus::kOk) return status;
  const std::uint32_t size = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                             (static_cast<std::uint32_t>(prefix[1]) << 16) |
                             (static_cast<std::uint32_t>(prefix[2]) << 8) |
                             static_cast<std::uint32_t>(prefix[3]);
  if (size > max_bytes || size > kMaxFrameBytes) {
    return FrameStatus::kTooLarge;  // reject before allocating `size` bytes
  }
  std::string payload(size, '\0');
  status = read_exact(fd, payload.data(), size, has_deadline, deadline);
  if (status != FrameStatus::kOk) return status;
  try {
    *message = Json::parse(payload);
  } catch (const JsonParseError&) {
    return FrameStatus::kMalformed;
  }
  return FrameStatus::kOk;
}

std::string frame_type(const Json& message) {
  if (!message.is_object() || !message.contains("type")) return "";
  const Json& type = message.at("type");
  return type.is_string() ? type.as_string() : "";
}

Json MeasureRequest::to_json() const {
  Json w = Json::object();
  w.set("kernel", workload.kernel);
  w.set("size", workload.size_name);
  Json dims = Json::array();
  for (std::int64_t d : workload.dims) dims.push_back(d);
  w.set("dims", std::move(dims));
  w.set("flops", workload.flops);

  Json j = Json::object();
  j.set("compiler", jit.compiler);
  j.set("flags", jit.flags);
  j.set("cache_dir", jit.cache_dir);
  j.set("parallel_threads", jit.parallel_threads);

  Json o = Json::object();
  o.set("repeat", option.repeat);
  o.set("warmup", option.warmup);
  o.set("timeout_s", option.timeout_s);

  Json tiles_json = Json::array();
  for (std::int64_t t : tiles) tiles_json.push_back(t);

  Json out = Json::object();
  out.set("type", "measure");
  out.set("trial", trial);
  out.set("workload", std::move(w));
  out.set("tiles", std::move(tiles_json));
  out.set("backend", runtime::exec_backend_name(backend));
  out.set("jit", std::move(j));
  out.set("option", std::move(o));
  out.set("seed", seed);
  return out;
}

MeasureRequest MeasureRequest::from_json(const Json& json) {
  MeasureRequest request;
  request.trial = static_cast<std::uint64_t>(json.at("trial").as_int());
  const Json& w = json.at("workload");
  request.workload.kernel = w.at("kernel").as_string();
  request.workload.size_name = w.at("size").as_string();
  for (const Json& d : w.at("dims").as_array()) {
    request.workload.dims.push_back(d.as_int());
  }
  request.workload.flops = w.at("flops").as_double();
  for (const Json& t : json.at("tiles").as_array()) {
    request.tiles.push_back(t.as_int());
  }
  const auto backend =
      runtime::exec_backend_from_name(json.at("backend").as_string());
  TVMBO_CHECK(backend.has_value())
      << "unknown backend in measure request: "
      << json.at("backend").as_string();
  request.backend = *backend;
  const Json& j = json.at("jit");
  request.jit.compiler = j.at("compiler").as_string();
  request.jit.flags = j.at("flags").as_string();
  request.jit.cache_dir = j.at("cache_dir").as_string();
  request.jit.parallel_threads =
      static_cast<int>(j.at("parallel_threads").as_int());
  const Json& o = json.at("option");
  request.option.repeat = static_cast<int>(o.at("repeat").as_int());
  request.option.warmup = static_cast<int>(o.at("warmup").as_int());
  request.option.timeout_s = o.at("timeout_s").as_double();
  request.seed = static_cast<std::uint64_t>(json.at("seed").as_int());
  return request;
}

Json MeasureReply::to_json() const {
  Json out = Json::object();
  out.set("type", "result");
  out.set("trial", trial);
  out.set("runtime_s", result.runtime_s);
  out.set("compile_s", result.compile_s);
  out.set("energy_j", result.energy_j);
  out.set("valid", result.valid);
  out.set("error", result.error);
  return out;
}

MeasureReply MeasureReply::from_json(const Json& json) {
  MeasureReply reply;
  reply.trial = static_cast<std::uint64_t>(json.at("trial").as_int());
  reply.result.runtime_s = json.at("runtime_s").as_double();
  reply.result.compile_s = json.at("compile_s").as_double();
  reply.result.energy_j = json.at("energy_j").as_double();
  reply.result.valid = json.at("valid").as_bool();
  reply.result.error = json.at("error").as_string();
  return reply;
}

Json hello_message(int worker, int pid) {
  Json out = Json::object();
  out.set("type", "hello");
  out.set("worker", worker);
  out.set("pid", pid);
  return out;
}

Json heartbeat_message(int worker) {
  Json out = Json::object();
  out.set("type", "heartbeat");
  out.set("worker", worker);
  return out;
}

Json shutdown_message() {
  Json out = Json::object();
  out.set("type", "shutdown");
  return out;
}

}  // namespace tvmbo::distd
