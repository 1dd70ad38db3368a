// Network topology: nodes joined by directed links with a rate capacity,
// propagation latency, and (for WAN links) jitter parameters.
//
// The prototype's network (§V): a 95.5 Mbps home Ethernet LAN and a shared
// wireless/Internet uplink to the public cloud (~6.5 Mbps down / 4.5 Mbps up
// max, ~1.5 Mbps average). Higher layers build that shape with a switch node
// and a gateway node.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/units.hpp"

namespace c4h::net {

struct NetNodeId {
  std::uint32_t v = UINT32_MAX;
  bool valid() const { return v != UINT32_MAX; }
  friend bool operator==(NetNodeId a, NetNodeId b) { return a.v == b.v; }
};

using LinkId = std::uint32_t;

struct Link {
  NetNodeId from;
  NetNodeId to;
  Rate capacity = 0;          // bytes/sec
  Duration latency{};         // propagation delay
  double latency_jitter = 0;  // lognormal sigma applied per message
  double rate_jitter = 0;     // lognormal sigma applied per flow
};

/// Static topology with memoized lowest-latency routes.
///
/// Routes are resolved lazily, one query at a time. Every host in the
/// modelled networks hangs off its switch by one duplex link, so a query is
/// first reduced to its *core pair*: while the source has exactly one
/// out-link (not a self-loop) that link is emitted and the source moves to
/// its head; while the destination has exactly one in-link (not a
/// self-loop) that link is kept for the tail and the destination moves to
/// its tail node. Only the core pair (switch↔switch, switch↔core,
/// core↔cloud) is searched, with an early-exit Dijkstra, and memoized; two
/// hosts on one switch need no search at all. The memo therefore holds one
/// entry per communicating core pair, not one per host pair.
///
/// The reduced routes are exactly the per-pair Dijkstra's: a node with a
/// single out-link settles its only neighbour first, and a node with a
/// single in-link is reached only through that link; the (distance, node)
/// tie-break and integer latencies are unchanged (DESIGN §13).
class Topology {
 public:
  NetNodeId add_node() {
    adjacency_.emplace_back();
    sole_in_.push_back(kNoLink);
    routes_dirty_ = true;
    return NetNodeId{static_cast<std::uint32_t>(adjacency_.size() - 1)};
  }

  /// Adds a unidirectional link.
  LinkId add_link(NetNodeId from, NetNodeId to, Rate capacity, Duration latency,
                  double latency_jitter = 0.0, double rate_jitter = 0.0) {
    assert(from.v < adjacency_.size() && to.v < adjacency_.size());
    const auto id = static_cast<LinkId>(links_.size());
    links_.push_back(Link{from, to, capacity, latency, latency_jitter, rate_jitter});
    adjacency_[from.v].push_back(id);
    sole_in_[to.v] = sole_in_[to.v] == kNoLink ? id : kManyLinks;
    routes_dirty_ = true;
    return id;
  }

  /// Adds a full-duplex link (two directed links); returns {fwd, rev}.
  std::pair<LinkId, LinkId> add_duplex(NetNodeId a, NetNodeId b, Rate capacity, Duration latency,
                                       double latency_jitter = 0.0, double rate_jitter = 0.0) {
    return {add_link(a, b, capacity, latency, latency_jitter, rate_jitter),
            add_link(b, a, capacity, latency, latency_jitter, rate_jitter)};
  }

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// Changes a link's nominal capacity at runtime (changing network
  /// conditions — a congested uplink, a throttled ISP). Routing is latency-
  /// based and unaffected; flow rates must be re-solved by the caller.
  void set_link_capacity(LinkId id, Rate capacity) { links_.at(id).capacity = capacity; }

  /// Appends the lowest-latency path (sequence of link ids) from `src` to
  /// `dst` to `out`; appends nothing for src == dst. Throws
  /// std::out_of_range, naming the pair, when no route exists.
  void append_route(NetNodeId src, NetNodeId dst, std::vector<LinkId>& out) const {
    if (!try_append_route(src.v, dst.v, out)) {
      throw std::out_of_range("Topology: no route from node " + std::to_string(src.v) +
                              " to node " + std::to_string(dst.v));
    }
  }

  /// The lowest-latency path from `src` to `dst`; see append_route().
  std::vector<LinkId> route(NetNodeId src, NetNodeId dst) const {
    std::vector<LinkId> out;
    append_route(src, dst, out);
    return out;
  }

  bool has_route(NetNodeId src, NetNodeId dst) const {
    std::vector<LinkId> out;
    return try_append_route(src.v, dst.v, out);
  }

  /// Sum of link propagation latencies along the path.
  Duration path_latency(NetNodeId src, NetNodeId dst) const {
    Duration d{};
    for (const LinkId l : route(src, dst)) d += links_[l].latency;
    return d;
  }

 private:
  // sole_in_ markers: a node with no in-link, or with more than one.
  static constexpr LinkId kNoLink = UINT32_MAX;
  static constexpr LinkId kManyLinks = UINT32_MAX - 1;

  // A node's only out-link / in-link, if it has exactly one that is not a
  // self-loop.
  bool single_out(std::uint32_t v, LinkId& lid) const {
    if (adjacency_[v].size() != 1) return false;
    lid = adjacency_[v].front();
    return links_[lid].to.v != v;
  }
  bool single_in(std::uint32_t v, LinkId& lid) const {
    lid = sole_in_[v];
    return lid < kManyLinks && links_[lid].from.v != v;
  }

  // Strips the single-link chains off both ends, then appends head chain +
  // memoized core path + tail chain; appends nothing when there is no route.
  // A route has fewer links than there are nodes, so stripping that many
  // hops means walking a cycle of one-link nodes that never meets the other
  // end: no route.
  bool try_append_route(std::uint32_t s, std::uint32_t t, std::vector<LinkId>& out) const {
    const std::size_t n = adjacency_.size();
    std::size_t hops = 0;
    LinkId lid = kNoLink;
    std::uint32_t core_s = s;
    for (; core_s != t && hops < n && single_out(core_s, lid); ++hops) {
      core_s = links_[lid].to.v;
    }
    std::uint32_t core_t = t;
    for (; core_t != core_s && hops < n && single_in(core_t, lid); ++hops) {
      core_t = links_[lid].from.v;
    }
    if (hops == n) return false;
    const std::vector<LinkId>* core = nullptr;
    if (core_s != core_t && (core = find_core_route(core_s, core_t)) == nullptr) return false;

    out.reserve(out.size() + hops + (core != nullptr ? core->size() : 0));
    for (std::uint32_t v = s; v != core_s && single_out(v, lid); v = links_[lid].to.v) {
      out.push_back(lid);
    }
    if (core != nullptr) out.insert(out.end(), core->begin(), core->end());
    const auto tail = static_cast<std::ptrdiff_t>(out.size());
    for (std::uint32_t v = t; v != core_t && single_in(v, lid); v = links_[lid].from.v) {
      out.push_back(lid);
    }
    std::reverse(out.begin() + tail, out.end());
    return true;
  }

  const std::vector<LinkId>* find_core_route(std::uint32_t s, std::uint32_t t) const {
    if (routes_dirty_) {
      routes_.clear();
      no_route_.clear();
      routes_dirty_ = false;
    }
    const auto key = (std::uint64_t{s} << 32) | t;
    if (const auto it = routes_.find(key); it != routes_.end()) return &it->second;
    if (no_route_.contains(key)) return nullptr;
    std::vector<LinkId> path;
    if (!shortest_path(s, t, path)) {
      no_route_.insert(key);
      return nullptr;
    }
    return &routes_.emplace(key, std::move(path)).first->second;
  }

  // Early-exit Dijkstra over latency from `s`, stopping once `t` settles.
  // Strict-< relaxation with a (distance, node-id) min-heap: the tie-break
  // every route in the simulator has always used. A popped node is final,
  // which makes breaking at `t` safe.
  bool shortest_path(std::uint32_t s, std::uint32_t t, std::vector<LinkId>& out) const {
    const auto n = adjacency_.size();
    if (++epoch_ == 0) {  // stamp wrap: invalidate every slot the hard way
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    dist_.resize(n);
    via_.resize(n);
    stamp_.resize(n, 0u);
    const auto dist_at = [this](std::uint32_t v) {
      return stamp_[v] == epoch_ ? dist_[v] : Duration::max();
    };

    using QE = std::pair<Duration, std::uint32_t>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    stamp_[s] = epoch_;
    dist_[s] = Duration::zero();
    pq.push({Duration::zero(), s});
    bool found = false;
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist_at(u)) continue;
      if (u == t) {
        found = true;
        break;
      }
      for (const LinkId lid : adjacency_[u]) {
        const Link& l = links_[lid];
        const Duration nd = d + l.latency;
        if (nd < dist_at(l.to.v)) {
          stamp_[l.to.v] = epoch_;
          dist_[l.to.v] = nd;
          via_[l.to.v] = lid;
          pq.push({nd, l.to.v});
        }
      }
    }
    if (!found) return false;
    out.clear();
    for (std::uint32_t cur = t; cur != s;) {
      const LinkId lid = via_[cur];
      out.push_back(lid);
      cur = links_[lid].from.v;
    }
    std::reverse(out.begin(), out.end());
    return true;
  }

  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  std::vector<LinkId> sole_in_;  // per node: its only in-link, kNoLink or kManyLinks
  // Core-pair memo: (core src << 32 | core dst) → path, or no route.
  mutable std::unordered_map<std::uint64_t, std::vector<LinkId>> routes_;
  mutable std::unordered_set<std::uint64_t> no_route_;
  mutable bool routes_dirty_ = false;
  // Dijkstra scratch, epoch-stamped so a query costs O(visited), not O(n).
  mutable std::vector<Duration> dist_;
  mutable std::vector<LinkId> via_;
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace c4h::net
