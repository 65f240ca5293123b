#include "svc/net/client.hpp"

namespace swr::svc::net {

bool ScanClient::connect(const std::string& host, std::uint16_t port, std::string& error) {
  sock_.close();
  sock_ = connect_tcp(host, port, error);
  return sock_.valid();
}

bool ScanClient::send_frame(FrameType type, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = make_frame(type, payload);
  return send_bytes(frame.data(), frame.size());
}

bool ScanClient::send_bytes(const void* data, std::size_t bytes) {
  if (!sock_.valid()) return false;
  return write_all(sock_.fd(), data, bytes) == IoStatus::Ok;
}

bool ScanClient::read_frame(ClientFrame& out, std::chrono::milliseconds deadline,
                            std::string& error) {
  if (!sock_.valid()) {
    error = "not connected";
    return false;
  }
  std::uint8_t hdr[kFrameHeaderBytes];
  IoStatus rs = read_exact(sock_.fd(), hdr, sizeof hdr, nullptr, deadline);
  if (rs != IoStatus::Ok) {
    error = rs == IoStatus::Timeout ? "read timed out" : "connection closed";
    return false;
  }
  FrameHeader header;
  if (parse_frame_header(hdr, header) != HeaderStatus::Ok) {
    error = "server sent a malformed frame header";
    return false;
  }
  std::vector<std::uint8_t> payload(header.length);
  if (header.length > 0) {
    rs = read_exact(sock_.fd(), payload.data(), header.length, nullptr, deadline);
    if (rs != IoStatus::Ok) {
      error = rs == IoStatus::Timeout ? "read timed out" : "connection closed mid-frame";
      return false;
    }
  }
  if (frame_checksum(payload.data(), payload.size()) != header.checksum) {
    error = "server frame failed checksum";
    return false;
  }
  out.type = header.type;
  out.raw.assign(hdr, hdr + sizeof hdr);
  out.raw.insert(out.raw.end(), payload.begin(), payload.end());
  out.payload = std::move(payload);
  return true;
}

ClientResponse ScanClient::scan(const WireRequest& req, std::chrono::milliseconds deadline) {
  ClientResponse resp;
  if (!send_frame(FrameType::Request, encode(req))) {
    resp.error = "failed to send request";
    return resp;
  }
  for (;;) {
    ClientFrame frame;
    if (!read_frame(frame, deadline, resp.error)) return resp;
    switch (frame.type) {
      case FrameType::Hit: {
        std::optional<WireHit> hit = decode_hit(frame.payload);
        if (!hit) {
          resp.error = "undecodable hit frame";
          return resp;
        }
        resp.raw_bytes.insert(resp.raw_bytes.end(), frame.raw.begin(), frame.raw.end());
        resp.hits.push_back(std::move(*hit));
        break;
      }
      case FrameType::Done: {
        std::optional<WireDone> done = decode_done(frame.payload);
        if (!done) {
          resp.error = "undecodable done frame";
          return resp;
        }
        resp.raw_bytes.insert(resp.raw_bytes.end(), frame.raw.begin(), frame.raw.end());
        resp.done = std::move(*done);
        resp.ok = true;
        // Callers keep responses; hand the frames back without the
        // growth slack of the appends above.
        resp.raw_bytes.shrink_to_fit();
        return resp;
      }
      case FrameType::Error: {
        std::optional<WireError> err = decode_error(frame.payload);
        if (!err) {
          resp.error = "undecodable error frame";
          return resp;
        }
        resp.raw_bytes.insert(resp.raw_bytes.end(), frame.raw.begin(), frame.raw.end());
        resp.error = std::string(to_string(err->code)) + ": " + err->message;
        resp.errors.push_back(std::move(*err));
        // Any error attributed to this request (or unattributable) ends
        // the exchange; the server will not follow it with our Done.
        return resp;
      }
      case FrameType::Pong:
        // A stale pong from an earlier ping is harmless; skip it.
        break;
      default:
        resp.error = std::string("unexpected frame from server: ") + to_string(frame.type);
        return resp;
    }
  }
}

bool ScanClient::ping(std::chrono::milliseconds deadline) {
  const std::vector<std::uint8_t> token{0x70, 0x6e, 0x67};
  if (!send_frame(FrameType::Ping, token)) return false;
  for (;;) {
    ClientFrame frame;
    std::string error;
    if (!read_frame(frame, deadline, error)) return false;
    if (frame.type == FrameType::Pong) return frame.payload == token;
    // Anything else (e.g. an unsolicited error frame) fails the ping.
    return false;
  }
}

bool ScanClient::send_cancel(std::uint64_t request_id) {
  return send_frame(FrameType::Cancel, encode(WireCancel{request_id}));
}

}  // namespace swr::svc::net
