#include "src/common/sha1.hpp"

#include <cstring>

namespace c4h {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buf_len_ = 0;
  total_bits_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[i * 4]} << 24) | (std::uint32_t{block[i * 4 + 1]} << 16) |
           (std::uint32_t{block[i * 4 + 2]} << 8) | std::uint32_t{block[i * 4 + 3]};
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  // The four 20-round phases differ only in f and k; one loop each keeps
  // the round index out of the loop body.
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  };
  for (int i = 0; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999u, w[i]);
  for (int i = 20; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1u, w[i]);
  for (int i = 40; i < 60; ++i) round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[i]);
  for (int i = 60; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6u, w[i]);
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bits_ += std::uint64_t{len} * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == buf_.size()) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
}

Sha1::Digest Sha1::finish() {
  // update() leaves fewer than 64 bytes buffered. Pad in place: 0x80, zeros
  // up to byte 56 (spilling into a second block when the first has no room
  // for the length), then the message length in bits, big-endian.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - i * 8));
  process_block(buf_.data());
  buf_len_ = 0;

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

}  // namespace c4h
