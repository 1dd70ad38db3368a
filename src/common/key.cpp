#include "src/common/key.hpp"

#include <cstring>
#include <utility>

#include "src/common/sha1.hpp"

namespace c4h {

namespace {

// One memo slot; size 0 marks it empty (the empty name is never memoised).
struct NameMemoSlot {
  std::uint64_t key;
  std::uint8_t size;
  char name[Key::kNameMemoMax];
};
static_assert(sizeof(NameMemoSlot) == 32);

// Each set is two adjacent slots, the more recently used first: one 64-byte
// cache line. thread_local rather than static: the simulator starts no threads,
// and a caller that ever hashes names from several threads needs no lock.
// Zero-initialised, so there is no guard on the hot path.
alignas(64) thread_local NameMemoSlot name_memo[2 * Key::kNameMemoSets];

Key hash_name(std::string_view name) {
  const auto d = Sha1::hash(name);
  std::uint64_t v = 0;
  for (int i = 0; i < 5; ++i) v = (v << 8) | d[i];
  return Key{v};
}

bool holds(const NameMemoSlot& slot, std::string_view name) {
  return slot.size == name.size() && std::memcmp(slot.name, name.data(), name.size()) == 0;
}

}  // namespace

Key Key::from_name(std::string_view name) {
  if (name.empty() || name.size() > kNameMemoMax) return hash_name(name);
  NameMemoSlot* set = &name_memo[2 * name_memo_set(name)];
  if (holds(set[0], name)) return Key{set[0].key};
  if (holds(set[1], name)) {
    std::swap(set[0], set[1]);
    return Key{set[0].key};
  }
  const Key k = hash_name(name);
  set[1] = set[0];
  set[0].key = k.raw();
  set[0].size = static_cast<std::uint8_t>(name.size());
  std::memcpy(set[0].name, name.data(), name.size());
  return k;
}

}  // namespace c4h
