// distd wire protocol: length-prefixed JSON framing over real sockets,
// request/reply serialization round-trips, and the two transports.
#include "distd/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "distd/socket.h"

namespace tvmbo::distd {
namespace {

/// A connected AF_UNIX socket pair wrapped in the fd-owning Socket class.
struct SocketPair {
  Socket a;
  Socket b;
  SocketPair() {
    int fds[2];
    TVMBO_CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(DistdProtocol, FrameRoundTripOverSocketpair) {
  SocketPair pair;
  Json message = Json::object();
  message.set("type", "measure");
  message.set("trial", std::int64_t{42});
  message.set("payload", "hello \"quoted\" \n world");
  ASSERT_EQ(write_frame(pair.a.fd(), message), FrameStatus::kOk);

  Json decoded;
  ASSERT_EQ(read_frame(pair.b.fd(), &decoded, /*timeout_ms=*/1000),
            FrameStatus::kOk);
  EXPECT_EQ(frame_type(decoded), "measure");
  EXPECT_EQ(decoded.at("trial").as_int(), 42);
  EXPECT_EQ(decoded.at("payload").as_string(), "hello \"quoted\" \n world");
}

TEST(DistdProtocol, SequentialFramesKeepBoundaries) {
  SocketPair pair;
  for (int i = 0; i < 5; ++i) {
    Json message = Json::object();
    message.set("type", "heartbeat");
    message.set("i", std::int64_t{i});
    ASSERT_EQ(write_frame(pair.a.fd(), message), FrameStatus::kOk);
  }
  for (int i = 0; i < 5; ++i) {
    Json decoded;
    ASSERT_EQ(read_frame(pair.b.fd(), &decoded, 1000), FrameStatus::kOk);
    EXPECT_EQ(decoded.at("i").as_int(), i);
  }
}

TEST(DistdProtocol, FrameIsSentInOneCall) {
  // A seqpacket pair keeps each send call's bytes as one record, so one
  // recv returns the whole frame only if prefix and payload left together:
  // a reader polling the socket never wakes to the prefix alone.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
  const Socket writer(fds[0]);
  const Socket reader(fds[1]);
  Json message = Json::object();
  message.set("type", "result");
  message.set("payload", std::string(300, 'x'));
  const std::size_t frame_bytes = 4 + message.dump().size();
  ASSERT_EQ(write_frame(writer.fd(), message), FrameStatus::kOk);
  std::vector<char> buffer(2 * frame_bytes);
  const ssize_t n =
      ::recv(reader.fd(), buffer.data(), buffer.size(), MSG_DONTWAIT);
  EXPECT_EQ(n, static_cast<ssize_t>(frame_bytes));
}

TEST(DistdProtocol, ReadTimesOutWithoutData) {
  SocketPair pair;
  Json decoded;
  EXPECT_EQ(read_frame(pair.b.fd(), &decoded, /*timeout_ms=*/50),
            FrameStatus::kTimeout);
}

TEST(DistdProtocol, ReadTimesOutOnHalfWrittenFrame) {
  SocketPair pair;
  // Announce a 100-byte payload but send only 3 bytes: the deadline
  // applies to the whole frame, so the reader must not block forever.
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(pair.a.fd(), prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.a.fd(), "{\"t", 3, 0), 3);
  Json decoded;
  EXPECT_EQ(read_frame(pair.b.fd(), &decoded, /*timeout_ms=*/50),
            FrameStatus::kTimeout);
}

TEST(DistdProtocol, ReadReportsClosedPeer) {
  SocketPair pair;
  pair.a.close();
  Json decoded;
  EXPECT_EQ(read_frame(pair.b.fd(), &decoded, 1000), FrameStatus::kClosed);
}

TEST(DistdProtocol, WriteToClosedPeerReportsClosedNotSigpipe) {
  SocketPair pair;
  pair.b.close();
  Json message = Json::object();
  message.set("type", "measure");
  // The first write may land in the (now orphaned) buffer; keep writing
  // until the kernel reports the broken pipe. Must not raise SIGPIPE.
  FrameStatus status = FrameStatus::kOk;
  for (int i = 0; i < 64 && status == FrameStatus::kOk; ++i) {
    status = write_frame(pair.a.fd(), message);
  }
  EXPECT_EQ(status, FrameStatus::kClosed);
}

TEST(DistdProtocol, OversizeLengthPrefixIsProtocolError) {
  SocketPair pair;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(huge >> 24),
      static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge)};
  ASSERT_EQ(::send(pair.a.fd(), prefix, 4, 0), 4);
  Json decoded;
  EXPECT_EQ(read_frame(pair.b.fd(), &decoded, 1000), FrameStatus::kTooLarge);
}

TEST(DistdProtocol, MalformedPayloadIsProtocolError) {
  SocketPair pair;
  const std::string garbage = "this is not json";
  const auto size = static_cast<std::uint32_t>(garbage.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(size >> 24),
      static_cast<unsigned char>(size >> 16),
      static_cast<unsigned char>(size >> 8),
      static_cast<unsigned char>(size)};
  ASSERT_EQ(::send(pair.a.fd(), prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.a.fd(), garbage.data(),
                   static_cast<ssize_t>(garbage.size()), 0),
            static_cast<ssize_t>(garbage.size()));
  Json decoded;
  EXPECT_EQ(read_frame(pair.b.fd(), &decoded, 1000), FrameStatus::kMalformed);
}

TEST(DistdProtocol, MeasureRequestJsonRoundTrip) {
  MeasureRequest request;
  request.trial = 7;
  request.workload.kernel = "gemm";
  request.workload.size_name = "mini";
  request.workload.dims = {20, 25, 30};
  request.workload.flops = 2.5e4;
  request.tiles = {4, 5, 2, 1, 8};  // incl. trailing parallel knobs
  request.backend = runtime::ExecBackend::kJit;
  request.jit.compiler = "cc";
  request.jit.flags = "-O2 -fPIC";
  request.jit.cache_dir = "/tmp/tvmbo-test-cache";
  request.jit.parallel_threads = 4;
  request.option.repeat = 3;
  request.option.warmup = 1;
  request.option.timeout_s = 0.75;
  request.seed = 0xdeadbeefcafeULL;

  const MeasureRequest decoded = MeasureRequest::from_json(request.to_json());
  EXPECT_EQ(decoded.trial, request.trial);
  EXPECT_EQ(decoded.workload.kernel, "gemm");
  EXPECT_EQ(decoded.workload.size_name, "mini");
  EXPECT_EQ(decoded.workload.dims, request.workload.dims);
  EXPECT_DOUBLE_EQ(decoded.workload.flops, request.workload.flops);
  EXPECT_EQ(decoded.tiles, request.tiles);
  EXPECT_EQ(decoded.backend, runtime::ExecBackend::kJit);
  EXPECT_EQ(decoded.jit.compiler, "cc");
  EXPECT_EQ(decoded.jit.flags, "-O2 -fPIC");
  EXPECT_EQ(decoded.jit.cache_dir, "/tmp/tvmbo-test-cache");
  EXPECT_EQ(decoded.jit.parallel_threads, 4);
  EXPECT_EQ(decoded.option.repeat, 3);
  EXPECT_EQ(decoded.option.warmup, 1);
  EXPECT_DOUBLE_EQ(decoded.option.timeout_s, 0.75);
  EXPECT_EQ(decoded.seed, request.seed);
}

TEST(DistdProtocol, MeasureReplyJsonRoundTripLosslessDoubles) {
  MeasureReply reply;
  reply.trial = 11;
  reply.result.runtime_s = 1.0 / 3.0;  // needs all 17 significant digits
  reply.result.compile_s = 0.1;
  reply.result.energy_j = 2.5;
  reply.result.valid = false;
  reply.result.error = "worker crashed: signal 11 (Segmentation fault)";

  const MeasureReply decoded = MeasureReply::from_json(reply.to_json());
  EXPECT_EQ(decoded.trial, 11u);
  EXPECT_DOUBLE_EQ(decoded.result.runtime_s, reply.result.runtime_s);
  EXPECT_DOUBLE_EQ(decoded.result.compile_s, reply.result.compile_s);
  EXPECT_DOUBLE_EQ(decoded.result.energy_j, reply.result.energy_j);
  EXPECT_FALSE(decoded.result.valid);
  EXPECT_EQ(decoded.result.error, reply.result.error);
}

TEST(DistdSocket, UnixListenAcceptConnect) {
  const std::string path =
      "/tmp/tvmbo-distd-test-" + std::to_string(::getpid()) + ".sock";
  ListenSocket listener = ListenSocket::unix_domain(path);
  EXPECT_EQ(listener.endpoint(), "unix:" + path);

  std::thread client([endpoint = listener.endpoint()] {
    Socket socket = Socket::connect(endpoint);
    Json message = Json::object();
    message.set("type", "hello");
    ASSERT_EQ(write_frame(socket.fd(), message), FrameStatus::kOk);
  });
  std::optional<Socket> accepted = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(accepted.has_value());
  Json decoded;
  EXPECT_EQ(read_frame(accepted->fd(), &decoded, 5000), FrameStatus::kOk);
  EXPECT_EQ(frame_type(decoded), "hello");
  client.join();
}

TEST(DistdSocket, TcpLoopbackEphemeralPort) {
  ListenSocket listener = ListenSocket::tcp_loopback(/*port=*/0);
  // The ephemeral port must be reflected in the endpoint string.
  EXPECT_EQ(listener.endpoint().rfind("tcp:127.0.0.1:", 0), 0u);
  EXPECT_NE(listener.endpoint(), "tcp:127.0.0.1:0");

  std::thread client([endpoint = listener.endpoint()] {
    Socket socket = Socket::connect(endpoint);
    Json message = Json::object();
    message.set("type", "hello");
    ASSERT_EQ(write_frame(socket.fd(), message), FrameStatus::kOk);
  });
  std::optional<Socket> accepted = listener.accept(5000);
  ASSERT_TRUE(accepted.has_value());
  Json decoded;
  EXPECT_EQ(read_frame(accepted->fd(), &decoded, 5000), FrameStatus::kOk);
  EXPECT_EQ(frame_type(decoded), "hello");
  client.join();
}

TEST(DistdSocket, AcceptTimesOutWithoutClient) {
  ListenSocket listener = ListenSocket::tcp_loopback(0);
  EXPECT_FALSE(listener.accept(/*timeout_ms=*/50).has_value());
}

}  // namespace
}  // namespace tvmbo::distd
