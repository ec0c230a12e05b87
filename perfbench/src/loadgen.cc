#include "perfbench/src/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <unordered_map>

#include "src/net/protocol.h"

namespace perfbench {

namespace net = pqcache::net;
using pqcache::Result;
using pqcache::Status;

double NowSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// Blocking write of all of `bytes` (handshake only; the run loop is
// non-blocking).
Status WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, char* buf, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = read(fd, buf + off, size - off);
    if (n == 0) return Status::Unavailable("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

struct LoadGenerator::Connection {
  int fd = -1;
  uint8_t version = net::kProtocolVersion;
  uint32_t next_stream = 1;  // Stream ids are never reused on a connection.
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::unordered_map<uint32_t, size_t> streams;  // stream id -> request.
  size_t open = 0;  // Streams not yet ended.

  ~Connection() {
    if (fd >= 0) close(fd);
  }
};

Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    uint16_t port, size_t connections) {
  std::unique_ptr<LoadGenerator> gen(new LoadGenerator());
  for (size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return Errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      return Errno("connect");
    }
    const int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::string hello;
    net::AppendHello(&hello, net::HelloFrame{net::kMinProtocolVersion,
                                             net::kProtocolVersion});
    PQC_RETURN_IF_ERROR(WriteAll(conn->fd, hello));
    char header_bytes[net::kFrameHeaderBytes];
    PQC_RETURN_IF_ERROR(
        ReadExact(conn->fd, header_bytes, net::kFrameHeaderBytes));
    auto header = net::ParseFrameHeader(
        reinterpret_cast<const uint8_t*>(header_bytes), net::kFrameHeaderBytes);
    if (!header.ok()) return header.status();
    std::string payload(header.value().length, '\0');
    PQC_RETURN_IF_ERROR(ReadExact(conn->fd, payload.data(), payload.size()));
    if (header.value().type != net::FrameType::kHelloAck) {
      return Status::FailedPrecondition("handshake: expected HelloAck");
    }
    auto version = net::DecodeHelloAck(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
    if (!version.ok()) return version.status();
    conn->version = version.value();

    const int flags = fcntl(conn->fd, F_GETFL, 0);
    if (flags < 0 || fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Errno("fcntl(O_NONBLOCK)");
    }
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

LoadGenerator::~LoadGenerator() = default;

namespace {

// Applies one server frame to the request table and sets `*ended` when the
// frame ends its stream. Returns non-OK only for connection-level failures;
// per-stream contract breaks land in the stream's `violation`. Ended
// streams stay in `streams`, so a frame that follows the end is recorded
// against its stream rather than mistaken for an unknown one.
Status HandleFrame(const net::FrameHeader& header, const uint8_t* data,
                   size_t size, double now,
                   const std::unordered_map<uint32_t, size_t>& streams,
                   bool* ended, RunResult* result) {
  if (header.type == net::FrameType::kGoodbye) return Status::OK();
  if (header.stream == 0) {
    if (header.type == net::FrameType::kError) {
      auto error = net::DecodeError(data, size);
      if (!error.ok()) return error.status();
      return Status(net::StatusCodeFromWire(error.value().code),
                    "connection error: " + error.value().message);
    }
    return Status::DataLoss("unexpected connection-scope frame");
  }
  auto it = streams.find(header.stream);
  if (it == streams.end()) {
    return Status::DataLoss("frame for a stream this generator never opened");
  }
  StreamOutcome& s = result->streams[it->second];
  if (s.terminal()) {
    if (s.violation.empty()) s.violation = "frame after the terminal frame";
    return Status::OK();
  }
  auto finish = [&]() { *ended = true; };
  switch (header.type) {
    case net::FrameType::kSubmitAck: {
      auto ack = net::DecodeSubmitAck(data, size);
      if (!ack.ok()) return ack.status();
      s.acked = now;
      return Status::OK();
    }
    case net::FrameType::kToken: {
      auto token = net::DecodeToken(data, size);
      if (!token.ok()) return token.status();
      if (token.value().index != s.tokens.size()) {
        s.violation = "token index " + std::to_string(token.value().index) +
                      " does not continue the stream (have " +
                      std::to_string(s.tokens.size()) + ")";
        finish();
        return Status::OK();
      }
      s.tokens.push_back(token.value().token);
      s.token_times.push_back(now);
      return Status::OK();
    }
    case net::FrameType::kDone: {
      auto done = net::DecodeDone(data, size);
      if (!done.ok()) return done.status();
      if (done.value().generated_tokens != s.tokens.size()) {
        s.violation = "Done count " +
                      std::to_string(done.value().generated_tokens) +
                      " != delivered " + std::to_string(s.tokens.size());
      } else {
        s.done = true;
      }
      finish();
      return Status::OK();
    }
    case net::FrameType::kError: {
      auto error = net::DecodeError(data, size);
      if (!error.ok()) return error.status();
      s.errored = true;
      s.refused = s.acked < 0;
      s.error = net::StatusCodeFromWire(error.value().code);
      finish();
      return Status::OK();
    }
    default:
      return Status::DataLoss("unexpected server frame type");
  }
}

}  // namespace

Status LoadGenerator::Run(const std::vector<Request>& requests,
                          const std::string& tag,
                          double drain_timeout_seconds, RunResult* result) {
  *result = RunResult{};
  result->streams.resize(requests.size());
  const size_t n_conns = conns_.size();
  std::vector<pollfd> fds(n_conns);
  size_t next = 0;
  size_t open = 0;
  char buf[1 << 16];
  result->origin = NowSeconds();
  const double origin = result->origin;
  double last_due = 0;
  for (const Request& r : requests) last_due = std::max(last_due, r.due_seconds);
  const double deadline = origin + last_due + drain_timeout_seconds;

  for (;;) {
    double now = NowSeconds();
    // Send everything due. Each frame is queued and flushed right away, so
    // the send time is the time the bytes reach the socket.
    while (next < requests.size() &&
           origin + requests[next].due_seconds <= now) {
      const Request& r = requests[next];
      Connection& c = *conns_[next % n_conns];
      net::SubmitFrame frame;
      frame.tag = tag;
      frame.tenant = r.tenant;
      frame.weight = r.weight;
      frame.max_new_tokens = r.max_new_tokens;
      frame.prompt = r.prompt;
      const uint32_t stream = c.next_stream++;
      net::AppendSubmit(&c.out, stream, frame, c.version);
      c.streams[stream] = next;
      ++c.open;
      ++open;
      StreamOutcome& s = result->streams[next];
      s.due = origin + r.due_seconds;
      s.sent = now;
      result->send_lag_ms.push_back((now - s.due) * 1e3);
      ++next;
    }
    for (auto& conn : conns_) {
      Connection& c = *conn;
      while (c.out_off < c.out.size()) {
        const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return Errno("send");
        }
        c.out_off += static_cast<size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (next == requests.size() && open == 0) break;
    if (now > deadline) {
      result->drain_timed_out = true;
      break;
    }

    double wait = next < requests.size()
                      ? origin + requests[next].due_seconds - now
                      : deadline - now;
    wait = std::clamp(wait, 0.0, 0.05);
    for (size_t i = 0; i < n_conns; ++i) {
      fds[i].fd = conns_[i]->fd;
      fds[i].events = POLLIN;
      if (!conns_[i]->out.empty()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("ppoll");
    }
    if (ready == 0) continue;
    now = NowSeconds();
    for (size_t i = 0; i < n_conns; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = *conns_[i];
      for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) {
          if (c.open > 0) {
            return Status::Unavailable("server closed a connection with " +
                                       std::to_string(c.open) +
                                       " streams open");
          }
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Errno("recv");
      }
      // Decode every complete frame buffered on this connection.
      while (c.in.size() - c.in_off >= net::kFrameHeaderBytes) {
        const uint8_t* base =
            reinterpret_cast<const uint8_t*>(c.in.data()) + c.in_off;
        auto header = net::ParseFrameHeader(base, net::kFrameHeaderBytes);
        if (!header.ok()) return header.status();
        const size_t total = net::kFrameHeaderBytes + header.value().length;
        if (c.in.size() - c.in_off < total) break;
        ++result->frames_received;
        bool ended = false;
        PQC_RETURN_IF_ERROR(HandleFrame(
            header.value(), base + net::kFrameHeaderBytes,
            header.value().length, now, c.streams, &ended, result));
        if (ended) {
          --c.open;
          --open;
        }
        c.in_off += total;
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      } else if (c.in_off > (1u << 20)) {
        c.in.erase(0, c.in_off);
        c.in_off = 0;
      }
    }
  }
  result->finished = NowSeconds();
  return Status::OK();
}

}  // namespace perfbench
