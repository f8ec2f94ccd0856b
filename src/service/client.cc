#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcer {
namespace service {

namespace {

const char* ClientSpanName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAppend:
      return "client.append";
    case Request::Kind::kResolve:
      return "client.resolve";
    case Request::Kind::kSame:
      return "client.same";
    case Request::Kind::kStats:
      return "client.stats";
    case Request::Kind::kShutdown:
      return "client.shutdown";
    case Request::Kind::kMetrics:
      return "client.metrics";
  }
  return "client.call";
}

Status SendAll(int fd, const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send failed");
  }
  return Status::OK();
}

Status RecvAll(int fd, uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = recv(fd, data + off, size - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::IOError("connection closed by daemon");
    return Status::IOError("recv failed");
  }
  return Status::OK();
}

}  // namespace

ResolverClient::~ResolverClient() { Close(); }

Status ResolverClient::Connect(uint16_t port) {
  // A pure-client process (no resolver opened) still honors
  // DCER_TRACE_FILE / DCER_METRICS for its request spans.
  obs::InitFromEnv();
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError("socket() failed");
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return Status::IOError("connect to 127.0.0.1:" + std::to_string(port) +
                           " failed");
  }
  return Status::OK();
}

void ResolverClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

Status ResolverClient::SendBytes(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  return SendAll(fd_, bytes.data(), bytes.size());
}

Status ResolverClient::CallRaw(const std::vector<uint8_t>& payload,
                               std::vector<uint8_t>* reply) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  uint8_t prefix[4];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  prefix[0] = static_cast<uint8_t>(len);
  prefix[1] = static_cast<uint8_t>(len >> 8);
  prefix[2] = static_cast<uint8_t>(len >> 16);
  prefix[3] = static_cast<uint8_t>(len >> 24);
  if (Status s = SendAll(fd_, prefix, 4); !s.ok()) return s;
  if (Status s = SendAll(fd_, payload.data(), payload.size()); !s.ok()) {
    return s;
  }
  if (Status s = RecvAll(fd_, prefix, 4); !s.ok()) return s;
  const uint32_t reply_len = static_cast<uint32_t>(prefix[0]) |
                             (static_cast<uint32_t>(prefix[1]) << 8) |
                             (static_cast<uint32_t>(prefix[2]) << 16) |
                             (static_cast<uint32_t>(prefix[3]) << 24);
  reply->resize(reply_len);
  return RecvAll(fd_, reply->data(), reply_len);
}

Status ResolverClient::Call(const Request& req, Response* resp) {
  std::vector<uint8_t> payload;
  EncodeRequest(req, &payload);
  std::vector<uint8_t> reply;
  if (Status s = CallRaw(payload, &reply); !s.ok()) return s;
  const wire::WireError err = DecodeResponse(reply, resp);
  if (err != wire::WireError::kOk) {
    return Status::Corruption(std::string("undecodable reply: ") +
                              wire::WireErrorName(err));
  }
  return Status::OK();
}

Status ResolverClient::CallKind(Request&& req, Response::Kind expected,
                                Response* resp) {
  // Stamp a trace context (one fresh span id per call; the trace id comes
  // from the installed context when the caller is already inside a traced
  // scope). The daemon echoes these ids on every span the request triggers.
  if (obs::TraceEnabled() && !req.trace.valid()) {
    const obs::TraceContext cur = obs::CurrentTraceContext();
    req.trace.trace_id = cur.valid() ? cur.trace_id : obs::NewTraceId();
    req.trace.span_id = obs::NewTraceId();
  }
  obs::TraceContextScope trace_scope(req.trace);
  obs::TraceSpan span(ClientSpanName(req.kind));
  if (Status s = Call(req, resp); !s.ok()) return s;
  if (resp->kind == Response::Kind::kError) {
    return Status::InvalidArgument("daemon refused request: " + resp->text);
  }
  if (resp->kind != expected) {
    return Status::Corruption("unexpected reply kind");
  }
  return Status::OK();
}

Status ResolverClient::Append(
    const Dataset& schema_source,
    const std::vector<std::pair<uint32_t, Row>>& rows, Response* resp) {
  Status st = CallKind(MakeAppendRequest(schema_source, rows),
                       Response::Kind::kAppended, resp);
  if (!st.ok() || resp->gids.size() != rows.size()) return st;
  // The reply lists gids in wire order: rows stably grouped by relation.
  std::vector<size_t> wire_order(rows.size());
  std::iota(wire_order.begin(), wire_order.end(), size_t{0});
  std::stable_sort(wire_order.begin(), wire_order.end(),
                   [&rows](size_t a, size_t b) {
                     return rows[a].first < rows[b].first;
                   });
  std::vector<Gid> by_row(rows.size());
  for (size_t k = 0; k < wire_order.size(); ++k) {
    by_row[wire_order[k]] = resp->gids[k];
  }
  resp->gids = std::move(by_row);
  return st;
}

Status ResolverClient::Resolve(Gid gid, Response* resp) {
  Request req;
  req.kind = Request::Kind::kResolve;
  req.gid = gid;
  return CallKind(std::move(req), Response::Kind::kEntity, resp);
}

Status ResolverClient::SameEntity(Gid a, Gid b, Response* resp) {
  Request req;
  req.kind = Request::Kind::kSame;
  req.a = a;
  req.b = b;
  return CallKind(std::move(req), Response::Kind::kBool, resp);
}

Status ResolverClient::Stats(Response* resp) {
  Request req;
  req.kind = Request::Kind::kStats;
  return CallKind(std::move(req), Response::Kind::kStats, resp);
}

Status ResolverClient::Shutdown(Response* resp) {
  Request req;
  req.kind = Request::Kind::kShutdown;
  return CallKind(std::move(req), Response::Kind::kBool, resp);
}

Status ResolverClient::Metrics(Response* resp) {
  Request req;
  req.kind = Request::Kind::kMetrics;
  return CallKind(std::move(req), Response::Kind::kMetrics, resp);
}

}  // namespace service
}  // namespace dcer
