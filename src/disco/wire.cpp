#include "disco/wire.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace fairshare::disco::wire {

namespace {

// Hostnames on the wire are length-prefixed (u16); anything longer than a
// DNS name can be is malformed by construction.
constexpr std::size_t kMaxHostLen = 255;

using util::ByteReader;
using util::ByteWriter;

/// A writer whose frame starts with `type`'s tag.
ByteWriter frame_of(MessageType type) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Consume the tag byte; false unless it is `type`'s.
bool expect_type(ByteReader& r, MessageType type) {
  return r.get_u8() == static_cast<std::uint8_t>(type) && r.ok();
}

void put_host(ByteWriter& w, const std::string& host) {
  const std::size_t len = std::min(host.size(), kMaxHostLen);
  w.put_u16(static_cast<std::uint16_t>(len));
  w.put_bytes(std::as_bytes(std::span(host.data(), len)));
}

bool get_host(ByteReader& r, std::string& out) {
  const std::uint16_t len = r.get_u16();
  if (len > kMaxHostLen) return false;
  const auto chars = r.view(len);
  if (!r.ok()) return false;
  out.assign(reinterpret_cast<const char*>(chars.data()), chars.size());
  return true;
}

void put_member(ByteWriter& w, const Member& m) {
  w.put_u64(m.id);
  put_host(w, m.host);
  w.put_u16(m.port);
}

bool get_member(ByteReader& r, Member& m) {
  m.id = r.get_u64();
  if (!get_host(r, m.host)) return false;
  m.port = r.get_u16();
  return r.ok();
}

void put_provider(ByteWriter& w, const Provider& p) {
  w.put_u64(p.peer_id);
  put_host(w, p.host);
  w.put_u16(p.port);
}

bool get_provider(ByteReader& r, Provider& p) {
  p.peer_id = r.get_u64();
  if (!get_host(r, p.host)) return false;
  p.port = r.get_u16();
  return r.ok();
}

// Minimum encoded sizes bound every variable-length list (see
// ByteReader::get_count), so a corrupt count cannot allocate unbounded
// scratch before the per-element reads fail.
constexpr std::size_t kMinMemberBytes = 8 + 2 + 2;    // id + len + port
constexpr std::size_t kMinProviderBytes = 8 + 2 + 2;  // id + len + port
constexpr std::size_t kLedgerEntryBytes = 8 + 8 + 8;

}  // namespace

// --------------------------------------------------------------- encoders

std::vector<std::byte> encode(const LookupRequest& msg) {
  ByteWriter w = frame_of(MessageType::lookup_request);
  w.put_u64(msg.key);
  return w.take();
}

std::vector<std::byte> encode(const LookupResponse& msg) {
  ByteWriter w = frame_of(MessageType::lookup_response);
  w.put_u8(msg.done ? 1 : 0);
  put_member(w, msg.target);
  w.put_u16(static_cast<std::uint16_t>(msg.successors.size()));
  for (const Member& m : msg.successors) put_member(w, m);
  return w.take();
}

std::vector<std::byte> encode(const AnnounceRequest& msg) {
  ByteWriter w = frame_of(MessageType::announce_request);
  w.put_u64(msg.file_id);
  put_provider(w, msg.provider);
  w.put_u32(msg.ttl_ms);
  w.put_u8(msg.replicate ? 1 : 0);
  return w.take();
}

std::vector<std::byte> encode(const AnnounceResponse& msg) {
  ByteWriter w = frame_of(MessageType::announce_response);
  w.put_u8(msg.stored ? 1 : 0);
  w.put_u8(msg.replicas);
  return w.take();
}

std::vector<std::byte> encode(const ResolveRequest& msg) {
  ByteWriter w = frame_of(MessageType::resolve_request);
  w.put_u64(msg.file_id);
  return w.take();
}

std::vector<std::byte> encode(const ResolveResponse& msg) {
  ByteWriter w = frame_of(MessageType::resolve_response);
  w.put_u16(static_cast<std::uint16_t>(msg.providers.size()));
  for (const Provider& p : msg.providers) put_provider(w, p);
  return w.take();
}

std::vector<std::byte> encode(const JoinRequest& msg) {
  ByteWriter w = frame_of(MessageType::join_request);
  put_member(w, msg.joiner);
  return w.take();
}

std::vector<std::byte> encode(const Gossip& msg) {
  ByteWriter w = frame_of(MessageType::gossip);
  w.put_u8(msg.reply ? 1 : 0);
  put_member(w, msg.from);
  w.put_u16(static_cast<std::uint16_t>(msg.members.size()));
  for (const Member& m : msg.members) put_member(w, m);
  w.put_u32(static_cast<std::uint32_t>(msg.ledger.size()));
  for (const auto& e : msg.ledger) {
    w.put_u64(e.user_id);
    w.put_u64(e.origin);
    w.put_f64(e.total);
  }
  return w.take();
}

std::vector<std::byte> encode(const StatusRequest&) {
  ByteWriter w = frame_of(MessageType::status_request);
  return w.take();
}

std::vector<std::byte> encode(const StatusResponse& msg) {
  ByteWriter w = frame_of(MessageType::status_response);
  put_member(w, msg.self);
  w.put_u16(static_cast<std::uint16_t>(msg.members.size()));
  for (const Member& m : msg.members) put_member(w, m);
  w.put_u32(msg.provider_records);
  w.put_u32(msg.ledger_entries);
  w.put_u64(msg.gossip_rounds);
  w.put_u64(msg.lookups_served);
  return w.take();
}

// --------------------------------------------------------------- decoders

std::optional<LookupRequest> decode_lookup_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::lookup_request)) return std::nullopt;
  LookupRequest msg;
  msg.key = r.get_u64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<LookupResponse> decode_lookup_response(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::lookup_response)) return std::nullopt;
  LookupResponse msg;
  msg.done = r.get_u8() != 0;
  if (!get_member(r, msg.target)) return std::nullopt;
  msg.successors.resize(r.get_count<std::uint16_t>(kMinMemberBytes));
  for (Member& m : msg.successors)
    if (!get_member(r, m)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<AnnounceRequest> decode_announce_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::announce_request)) return std::nullopt;
  AnnounceRequest msg;
  msg.file_id = r.get_u64();
  if (!get_provider(r, msg.provider)) return std::nullopt;
  msg.ttl_ms = r.get_u32();
  msg.replicate = r.get_u8() != 0;
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<AnnounceResponse> decode_announce_response(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::announce_response)) return std::nullopt;
  AnnounceResponse msg;
  msg.stored = r.get_u8() != 0;
  msg.replicas = r.get_u8();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<ResolveRequest> decode_resolve_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::resolve_request)) return std::nullopt;
  ResolveRequest msg;
  msg.file_id = r.get_u64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<ResolveResponse> decode_resolve_response(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::resolve_response)) return std::nullopt;
  ResolveResponse msg;
  msg.providers.resize(r.get_count<std::uint16_t>(kMinProviderBytes));
  for (Provider& p : msg.providers)
    if (!get_provider(r, p)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<JoinRequest> decode_join_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::join_request)) return std::nullopt;
  JoinRequest msg;
  if (!get_member(r, msg.joiner)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<Gossip> decode_gossip(std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::gossip)) return std::nullopt;
  Gossip msg;
  msg.reply = r.get_u8() != 0;
  if (!get_member(r, msg.from)) return std::nullopt;
  msg.members.resize(r.get_count<std::uint16_t>(kMinMemberBytes));
  for (Member& m : msg.members)
    if (!get_member(r, m)) return std::nullopt;
  msg.ledger.resize(r.get_count<std::uint32_t>(kLedgerEntryBytes));
  for (auto& e : msg.ledger) {
    e.user_id = r.get_u64();
    e.origin = r.get_u64();
    e.total = r.get_f64();
  }
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<StatusRequest> decode_status_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::status_request)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;
  return StatusRequest{};
}

std::optional<StatusResponse> decode_status_response(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::status_response)) return std::nullopt;
  StatusResponse msg;
  if (!get_member(r, msg.self)) return std::nullopt;
  msg.members.resize(r.get_count<std::uint16_t>(kMinMemberBytes));
  for (Member& m : msg.members)
    if (!get_member(r, m)) return std::nullopt;
  msg.provider_records = r.get_u32();
  msg.ledger_entries = r.get_u32();
  msg.gossip_rounds = r.get_u64();
  msg.lookups_served = r.get_u64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<MessageType> peek_type(std::span<const std::byte> frame) {
  if (frame.empty()) return std::nullopt;
  const auto tag = std::to_integer<std::uint8_t>(frame[0]);
  if (tag < static_cast<std::uint8_t>(MessageType::lookup_request) ||
      tag > static_cast<std::uint8_t>(MessageType::status_response))
    return std::nullopt;
  return static_cast<MessageType>(tag);
}

}  // namespace fairshare::disco::wire
