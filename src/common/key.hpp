// The 40-bit key space of the VStore++ metadata layer.
//
// Keys identify objects (hash of object name), services (hash of service
// name ++ service id) and nodes (hash of the node's address), so that one
// key-value store holds all three kinds of entries (§III-A).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace c4h {

/// A 40-bit identifier in the Chimera overlay key space, stored in the low
/// 40 bits of a 64-bit integer. Ten hex digits when printed.
class Key {
 public:
  static constexpr int kBits = 40;
  static constexpr int kDigits = 10;  // hex digits (4 bits each)
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;

  constexpr Key() = default;
  constexpr explicit Key(std::uint64_t raw) : v_(raw & kMask) {}

  /// Derives a key by hashing a name with SHA-1 and truncating to 40 bits.
  /// Every op names its object, and the same names recur, so the result is
  /// memoised in kNameMemoSets two-way sets, least recently used out. A
  /// slot holds a whole name of 1..kNameMemoMax bytes and its key; a hit
  /// needs the stored name to equal the query byte for byte, and a miss
  /// hashes. So the key never depends on what the memo holds, and the memo
  /// never grows (64 KiB). Longer and empty names are hashed every time.
  static Key from_name(std::string_view name);

  static constexpr std::size_t kNameMemoSets = 1024;
  static constexpr std::size_t kNameMemoMax = 23;
  /// The memo set `name` maps to (exposed so tests can force collisions).
  static std::size_t name_memo_set(std::string_view name) {
    return std::hash<std::string_view>{}(name) % kNameMemoSets;
  }

  constexpr std::uint64_t raw() const { return v_; }

  /// The i-th hex digit, counting from the most significant (digit 0).
  constexpr unsigned digit(int i) const {
    return static_cast<unsigned>((v_ >> (4 * (kDigits - 1 - i))) & 0xF);
  }

  /// Number of leading hex digits shared with `other` (0..kDigits).
  constexpr int shared_prefix_len(Key other) const {
    for (int i = 0; i < kDigits; ++i) {
      if (digit(i) != other.digit(i)) return i;
    }
    return kDigits;
  }

  /// Circular distance in the key ring (minimum of the two directions).
  constexpr std::uint64_t ring_distance(Key other) const {
    const std::uint64_t fwd = (other.v_ - v_) & kMask;
    const std::uint64_t bwd = (v_ - other.v_) & kMask;
    return fwd < bwd ? fwd : bwd;
  }

  /// Clockwise (increasing) distance from this key to `other` on the ring.
  constexpr std::uint64_t clockwise_distance(Key other) const {
    return (other.v_ - v_) & kMask;
  }

  friend constexpr auto operator<=>(Key a, Key b) = default;

  std::string to_string() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string s(kDigits, '0');
    for (int i = 0; i < kDigits; ++i) s[static_cast<std::size_t>(i)] = kHex[digit(i)];
    return s;
  }

 private:
  std::uint64_t v_ = 0;
};

}  // namespace c4h

template <>
struct std::hash<c4h::Key> {
  std::size_t operator()(c4h::Key k) const noexcept {
    return std::hash<std::uint64_t>{}(k.raw());
  }
};
