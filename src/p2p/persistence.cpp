#include "p2p/persistence.hpp"

#include <cstring>
#include <fstream>

#include "p2p/wire.hpp"
#include "util/bytes.hpp"

namespace fairshare::p2p {

namespace {

constexpr char kMagic[4] = {'F', 'S', 'S', 'T'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::vector<std::byte> serialize_store(const MessageStore& store) {
  util::ByteWriter w;
  w.put_bytes(std::as_bytes(std::span(kMagic)));
  w.put_u32(kVersion);
  const auto ids = store.file_ids();
  w.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint64_t fid : ids) {
    w.put_u64(fid);
    const std::size_t count = store.count(fid);
    w.put_u32(static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      // A wire::coded_message frame, written header then payload in place.
      const coding::EncodedMessage& msg = store.at(fid, i);
      w.put_u32(static_cast<std::uint32_t>(wire::kCodedMessageHeaderBytes +
                                           msg.payload.size()));
      w.put_bytes(wire::encode_coded_message_header(msg));
      w.put_bytes(msg.payload);
    }
  }
  return w.take();
}

std::optional<MessageStore> deserialize_store(std::span<const std::byte> data,
                                              std::size_t per_file_limit) {
  util::ByteReader r(data);
  const auto magic = r.view(sizeof(kMagic));
  if (!r.ok() || std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0)
    return std::nullopt;
  if (r.get_u32() != kVersion) return std::nullopt;

  MessageStore store(per_file_limit);
  const std::uint32_t files = r.get_u32();
  for (std::uint32_t f = 0; f < files; ++f) {
    const std::uint64_t fid = r.get_u64();
    const std::uint32_t count = r.get_u32();
    if (!r.ok()) return std::nullopt;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto frame = r.view(r.get_u32());
      if (!r.ok()) return std::nullopt;
      auto msg = wire::decode_coded_message(frame);
      if (!msg || msg->file_id != fid) return std::nullopt;
      store.store(std::move(*msg));  // limit drops excess, as documented
    }
  }
  if (!r.at_end()) return std::nullopt;
  return store;
}

namespace {

bool write_all(const std::string& path, std::span<const std::byte> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good();
}

std::optional<std::vector<std::byte>> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in.good() && size != 0) return std::nullopt;
  return data;
}

}  // namespace

bool save_store(const MessageStore& store, const std::string& path) {
  return write_all(path, serialize_store(store));
}

std::optional<MessageStore> load_store(const std::string& path,
                                       std::size_t per_file_limit) {
  const auto data = read_all(path);
  if (!data) return std::nullopt;
  return deserialize_store(*data, per_file_limit);
}

bool save_file_info(const coding::FileInfo& info, const std::string& path) {
  return write_all(path, wire::encode(info));
}

std::optional<coding::FileInfo> load_file_info(const std::string& path) {
  const auto data = read_all(path);
  if (!data) return std::nullopt;
  return wire::decode_file_info(*data);
}

}  // namespace fairshare::p2p
