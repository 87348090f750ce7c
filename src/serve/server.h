// ServeServer: the socket front of the tuning service. Accepts client
// connections on a unix/tcp endpoint, parses one request frame per
// connection (job_submit / job_status / job_cancel / job_list), and for
// submits turns the connection into the job's event stream.
//
// Hostile-client posture: client frames are capped at
// kServeMaxFrameBytes (an oversized length prefix is rejected before any
// allocation), and framing violations get a typed error frame before the
// close — after a bad frame the stream cannot be re-synchronized, so the
// connection always dies with it. A submit connection that disappears
// (EOF, or a failed event write) before its job finishes cancels the
// job: an abandoned tenant must not keep burning shared workers.
//
// Each connection runs on its own thread. A thread that finishes posts
// its id, and the accept loop joins it before the next accept, so a
// long-running daemon holds threads (and stacks) only for the
// connections that are still open; shutdown() joins those.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "distd/socket.h"
#include "serve/scheduler.h"

namespace tvmbo::serve {

struct ServerOptions {
  /// "unix" (socket_path required) or "tcp" (loopback, tcp_port; 0 =
  /// ephemeral, reflected in endpoint()).
  std::string transport = "unix";
  std::string socket_path;
  int tcp_port = 0;
  /// Poll granularity for connection reads (bounds shutdown latency).
  int poll_ms = 200;
};

class ServeServer {
 public:
  /// Binds the listener and starts the accept loop. The scheduler is not
  /// owned and must outlive the server.
  ServeServer(Scheduler* scheduler, ServerOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// The string clients pass to Socket::connect.
  const std::string& endpoint() const { return listener_.endpoint(); }

  /// Stops accepting, wakes every connection, joins all threads. Does
  /// NOT drain the scheduler — callers drain first so in-flight jobs
  /// emit their terminal events while connections still exist.
  void shutdown();

 private:
  void accept_loop();
  void reap_finished_connections();
  void serve_connection(distd::Socket socket);
  void handle_submit(distd::Socket& socket, const Json& request);

  Scheduler* scheduler_;
  ServerOptions options_;
  distd::ListenSocket listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  /// Every connection thread not yet joined, by connection id.
  std::map<std::uint64_t, std::thread> connection_threads_;
  /// Ids of connection threads that have returned and can be joined.
  std::vector<std::uint64_t> finished_connections_;
  std::uint64_t next_connection_id_ = 0;
};

}  // namespace tvmbo::serve
