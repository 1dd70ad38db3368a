// R3/R4 fixture (good): names the tree declares twice, once with a tracked
// type and once with another, are ambiguous at an unqualified use site, so
// neither rule flags them.
namespace c4h {
sim::Task<> preload(const Schedule& s);  // the coroutine...

struct Driver {
  virtual void preload() {}  // ...and a void member of the same name
};

struct Hashed {
  std::unordered_map<int, int> cells_;
};

struct Ordered {
  std::map<int, int> cells_;  // an ordered member of the same name

  int sum() const {
    int s = 0;
    for (const auto& [k, v] : cells_) s += v;  // the ordered one: fine
    return s;
  }
};

void round(Driver* d) {
  d->preload();  // the void member: nothing is discarded
}
}  // namespace c4h
