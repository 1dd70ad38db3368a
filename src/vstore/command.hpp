// The VStore++ command protocol (§IV): "Every method call in VStore++ is
// converted into a command. ... Each command packet consists of packet
// length, command type, the requesting service ID, VMs domain ID, shared
// memory reference and command data. ... Commands are usually less than 50
// bytes."
#pragma once

#include <cstdint>
#include <string>

#include "src/common/result.hpp"
#include "src/common/serial.hpp"

namespace c4h::vstore {

enum class CommandType : std::uint8_t {
  create_object = 1,
  store_object,
  fetch_object,
  process_object,
  fetch_process,
  ack,
  error_reply,
};

struct CommandPacket {
  CommandType type = CommandType::ack;
  std::uint32_t service_id = 0;
  std::uint32_t domain_id = 0;
  std::uint64_t shm_ref = 0;  // grant-table reference for the data channel
  std::string data;           // command-specific payload (e.g. object name)

  Buffer serialize() const {
    Writer body;
    body.write(type);
    body.write(service_id);
    body.write(domain_id);
    body.write(shm_ref);
    body.write(data);
    Writer w;
    w.write(static_cast<std::uint32_t>(body.size()));  // packet length header
    Buffer out = std::move(w).take();
    const Buffer& b = body.buffer();
    // One exact reserve; it also keeps GCC 12 at -O3 from misreading the
    // copy as an out-of-bounds read (-Wstringop-overread).
    out.reserve(out.size() + b.size());
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  static Result<CommandPacket> deserialize(const Buffer& buf) {
    Reader r{buf};
    auto len = r.read<std::uint32_t>();
    if (!len) return len.error();
    if (r.remaining() != *len) return Error{Errc::io_error, "length header mismatch"};
    CommandPacket p;
    auto type = r.read<CommandType>();
    if (!type) return type.error();
    p.type = *type;
    auto sid = r.read<std::uint32_t>();
    if (!sid) return sid.error();
    p.service_id = *sid;
    auto did = r.read<std::uint32_t>();
    if (!did) return did.error();
    p.domain_id = *did;
    auto shm = r.read<std::uint64_t>();
    if (!shm) return shm.error();
    p.shm_ref = *shm;
    auto data = r.read_string();
    if (!data) return data.error();
    p.data = std::move(*data);
    return p;
  }

  std::size_t wire_size() const { return serialize().size(); }
};

}  // namespace c4h::vstore
