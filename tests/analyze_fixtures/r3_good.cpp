// R3 fixture (good): sorted-snapshot traversal, plus an annotated loop whose
// result is provably order-insensitive.
namespace c4h {
struct CellTable {
  std::unordered_map<int, int> cells_;

  int emit_all() {
    int sent = 0;
    for (const int k : sorted_keys(cells_)) {  // sanctioned remedy
      sent += send(k, cells_.at(k));
    }
    return sent;
  }

  int checksum() const {
    int s = 0;
    // c4h-analyze: allow(R3) — integer sum; accumulation order is irrelevant.
    for (const auto& [k, v] : cells_) s += v;
    return s;
  }
};
}  // namespace c4h
