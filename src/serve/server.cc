#include "serve/server.h"

#include <utility>

#include "common/logging.h"
#include "distd/protocol.h"

namespace tvmbo::serve {

namespace {

using distd::FrameStatus;

/// Write side of one submit connection, shared between the connection
/// thread (reads, lifetime) and the scheduler's event sink (writes).
/// The sink outlives the connection — the job registry keeps it — so
/// every touch of the socket goes through `mutex` and checks `closed`.
struct ConnState {
  std::mutex mutex;
  distd::Socket socket;
  bool closed = false;
  bool terminal = false;  ///< a job_complete/job_cancel frame was sent
};

/// Sends one frame unless the connection is already gone.
void send_locked(const std::shared_ptr<ConnState>& state, const Json& frame) {
  std::lock_guard<std::mutex> lock(state->mutex);
  if (state->closed) return;
  if (distd::write_frame(state->socket.fd(), frame) != FrameStatus::kOk) {
    state->closed = true;
  }
}

}  // namespace

ServeServer::ServeServer(Scheduler* scheduler, ServerOptions options)
    : scheduler_(scheduler), options_(std::move(options)) {
  TVMBO_CHECK(scheduler_ != nullptr) << "server requires a scheduler";
  if (options_.transport == "tcp") {
    listener_ = distd::ListenSocket::tcp_loopback(options_.tcp_port);
  } else {
    TVMBO_CHECK_EQ(options_.transport, "unix")
        << "unknown transport (want unix|tcp): " << options_.transport;
    TVMBO_CHECK(!options_.socket_path.empty())
        << "unix transport requires a socket path";
    listener_ = distd::ListenSocket::unix_domain(options_.socket_path);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ServeServer::~ServeServer() { shutdown(); }

void ServeServer::shutdown() {
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<std::uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  for (auto& [id, thread] : threads) thread.join();
}

void ServeServer::reap_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (std::uint64_t id : finished_connections_) {
      finished.push_back(std::move(connection_threads_.extract(id).mapped()));
    }
    finished_connections_.clear();
  }
  for (std::thread& thread : finished) thread.join();
}

void ServeServer::accept_loop() {
  while (!stop_.load()) {
    reap_finished_connections();
    std::optional<distd::Socket> conn;
    try {
      conn = listener_.accept(options_.poll_ms);
    } catch (const std::exception& e) {
      TVMBO_LOG(Warning) << "serve accept failed: " << e.what();
      continue;
    }
    if (!conn.has_value()) continue;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    const std::uint64_t id = next_connection_id_++;
    connection_threads_.emplace(
        id, std::thread([this, id, socket = std::move(*conn)]() mutable {
          serve_connection(std::move(socket));
          std::lock_guard<std::mutex> done(threads_mutex_);
          finished_connections_.push_back(id);
        }));
  }
}

void ServeServer::serve_connection(distd::Socket socket) {
  // One request frame per connection; submits then hold the connection
  // open as the job's event stream.
  Json request;
  FrameStatus status = FrameStatus::kTimeout;
  while (!stop_.load()) {
    status = distd::read_frame(socket.fd(), &request, options_.poll_ms,
                               kServeMaxFrameBytes);
    if (status != FrameStatus::kTimeout) break;
  }
  if (status == FrameStatus::kTooLarge || status == FrameStatus::kMalformed) {
    // Typed rejection, then close: the stream position is undefined.
    distd::write_frame(
        socket.fd(),
        error_frame(distd::frame_status_name(status),
                    "rejected client frame"));
    return;
  }
  if (status != FrameStatus::kOk) return;  // EOF/error/shutdown race

  const std::string type = distd::frame_type(request);
  if (type == "job_submit") {
    handle_submit(socket, request);
    return;
  }
  if (type == "job_list") {
    Json jobs = Json::array();
    for (const JobStatus& job : scheduler_->list()) {
      jobs.push_back(job.to_json());
    }
    Json reply = Json::object();
    reply.set("type", "list_reply");
    reply.set("jobs", std::move(jobs));
    distd::write_frame(socket.fd(), reply);
    return;
  }
  if (type == "job_status" || type == "job_cancel") {
    std::uint64_t job = 0;
    try {
      job = static_cast<std::uint64_t>(request.at("job").as_int());
    } catch (const std::exception& e) {
      distd::write_frame(socket.fd(), error_frame("bad_request", e.what()));
      return;
    }
    if (type == "job_status") {
      const std::optional<JobStatus> status_opt = scheduler_->status(job);
      if (!status_opt.has_value()) {
        distd::write_frame(socket.fd(),
                           error_frame("unknown_job",
                                       "no job " + std::to_string(job)));
        return;
      }
      Json reply = status_opt->to_json();
      reply.set("type", "status_reply");
      distd::write_frame(socket.fd(), reply);
      return;
    }
    if (!scheduler_->cancel(job, "client request")) {
      distd::write_frame(
          socket.fd(),
          error_frame("unknown_job",
                      "no cancellable job " + std::to_string(job)));
      return;
    }
    Json reply = Json::object();
    reply.set("type", "cancel_reply");
    reply.set("job", job);
    distd::write_frame(socket.fd(), reply);
    return;
  }
  if (type == "config_lookup") {
    Json reply;
    try {
      reply = scheduler_->lookup(LookupSpec::from_json(request));
    } catch (const std::exception& e) {
      reply = error_frame("bad_request", e.what());
    }
    distd::write_frame(socket.fd(), reply);
    return;
  }
  distd::write_frame(socket.fd(),
                     error_frame("bad_request",
                                 "unknown request type '" + type + "'"));
}

void ServeServer::handle_submit(distd::Socket& socket, const Json& request) {
  JobSpec spec;
  try {
    spec = JobSpec::from_json(request);
  } catch (const std::exception& e) {
    distd::write_frame(socket.fd(), error_frame("bad_request", e.what()));
    return;
  }

  auto state = std::make_shared<ConnState>();
  state->socket = std::move(socket);
  Scheduler::EventSink sink = [state](const Json& frame) {
    send_locked(state, frame);
    if (frame.contains("event") &&
        is_terminal_event(frame.at("event").as_string())) {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->terminal = true;
    }
  };

  // Hold the write lock across submit + accept so the scheduler's first
  // event (the sink locks the same mutex) cannot outrun job_accept.
  Scheduler::SubmitResult result;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    result = scheduler_->submit(spec, sink);
    const Json& reply = result.ok()
                            ? job_accept_frame(result.job)
                            : error_frame(result.error_code, result.message);
    if (distd::write_frame(state->socket.fd(), reply) != FrameStatus::kOk) {
      state->closed = true;
    }
  }
  if (!result.ok()) return;

  // The connection is now the event stream. Keep reading so we notice a
  // vanished client (EOF cancels the job — an abandoned tenant must not
  // keep burning shared workers) and accept in-band job_cancel frames.
  for (;;) {
    bool write_failed = false;
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->terminal) break;
      write_failed = state->closed;
    }
    if (write_failed) {
      // An event write failed: the client left before we read its EOF.
      scheduler_->cancel(result.job, "client disconnected");
      break;
    }
    if (stop_.load()) {
      // Server shutdown without a drain: the scheduler (or its owner)
      // is responsible for the job; just stop serving the stream.
      scheduler_->cancel(result.job, "server shutdown");
      break;
    }
    Json frame;
    const FrameStatus status =
        distd::read_frame(state->socket.fd(), &frame, options_.poll_ms,
                          kServeMaxFrameBytes);
    if (status == FrameStatus::kTimeout) continue;
    if (status == FrameStatus::kOk) {
      if (distd::frame_type(frame) == "job_cancel") {
        scheduler_->cancel(result.job, "client request");
      }
      continue;
    }
    // EOF, error, or a framing violation mid-stream: the client is gone
    // or hostile either way.
    scheduler_->cancel(result.job, "client disconnected");
    break;
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  state->closed = true;
  state->socket.close();
}

}  // namespace tvmbo::serve
