// R3 fixture (bad): traversing a hash table directly, in both range-for and
// iterator form. The member declaration below feeds R3's name index.
namespace c4h {
struct CellTable {
  std::unordered_map<int, int> cells_;

  int emit_all() {
    int sent = 0;
    for (const auto& [k, v] : cells_) {  // R3: range-for over hash table
      sent += send(k, v);
    }
    for (auto it = cells_.begin(); it != cells_.end(); ++it) {  // R3: iterator
      sent += it->second;
    }
    return sent;
  }
};
}  // namespace c4h
