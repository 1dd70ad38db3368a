// R3/R4 fixture (bad): near misses of shadow_good.cpp. A variable that
// shares a function's name, or an `auto` declaration that shares a hash
// table's name, does not make the name ambiguous.
namespace c4h {
sim::Task<> preload(const Schedule& s);

struct Hashed {
  std::unordered_map<int, int> cells_;

  int sum() const {
    int s = 0;
    for (const auto& [k, v] : cells_) s += v;  // R3: still the hash table
    return s;
  }
};

void round(const Schedule& s) {
  const int preload_count = 0;
  auto cells_ = preload_count;
  (void)cells_;
  int preload = 1;
  (void)preload;
  c4h::preload(s);  // R4: still the coroutine
}
}  // namespace c4h
