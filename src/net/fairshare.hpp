// Max-min fair bandwidth allocation with per-flow rate caps
// (progressive filling / water-filling).
//
// Given link capacities and the set of links each flow traverses, computes
// the classic max-min fair allocation: rates are raised together until a
// link saturates or a flow hits its own cap; saturated flows freeze and the
// rest continue. This is the standard flow-level model of TCP bandwidth
// sharing on a shared bottleneck (home LAN vs the thin cloud uplink).
//
// Two solvers live here:
//
//  * max_min_fair_rates() — the original one-shot global water-filling.
//    It is the semantic reference: Network's default (`NetModel::global`)
//    calls it on every network event, through LoadedLinkProblem, over the
//    links that carry a flow; the incremental engine's property tests
//    compare against it.
//
//  * FairShareEngine — the incremental solver (ROADMAP item 1). It keeps
//    per-link flow sets and, on a flow add/remove/cap change or a link
//    capacity change, re-solves only the *affected connected component* of
//    the flow–link conflict graph: flows that share no link (directly or
//    transitively) with the change keep their rates untouched. For the
//    home-cloud star topologies most components are a handful of flows, so
//    an event costs O(component) instead of O(flows × links).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "src/common/units.hpp"

namespace c4h::net {

struct FairFlowDesc {
  std::vector<std::uint32_t> links;  // indices into the capacity vector
  Rate cap = std::numeric_limits<Rate>::infinity();  // per-flow rate cap
};

/// Returns one rate per flow. Flows with an empty link list (loopback) get
/// their own cap. O(iterations × flows × links); fine at home-cloud scale.
inline std::vector<Rate> max_min_fair_rates(const std::vector<Rate>& link_capacity,
                                            const std::vector<FairFlowDesc>& flows) {
  const std::size_t nf = flows.size();
  std::vector<Rate> rate(nf, 0.0);
  std::vector<bool> frozen(nf, false);

  // Loopback flows are bounded only by their own cap.
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].links.empty()) {
      rate[f] = flows[f].cap;
      frozen[f] = true;
    }
  }

  std::vector<Rate> used(link_capacity.size(), 0.0);

  for (;;) {
    // Count unfrozen flows per link and find the tightest constraint.
    std::vector<std::uint32_t> active(link_capacity.size(), 0);
    bool any_unfrozen = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      any_unfrozen = true;
      for (const auto l : flows[f].links) ++active[l];
    }
    if (!any_unfrozen) break;

    // Headroom per active link / flow count = the equal increment each
    // unfrozen flow could still receive from that link.
    double increment = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_capacity.size(); ++l) {
      if (active[l] == 0) continue;
      increment = std::min(increment, (link_capacity[l] - used[l]) / active[l]);
    }
    // A flow's own cap may bind before any link.
    for (std::size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) increment = std::min(increment, flows[f].cap - rate[f]);
    }
    if (increment < 0) increment = 0;

    // Raise every unfrozen flow by the increment.
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      rate[f] += increment;
      for (const auto l : flows[f].links) used[l] += increment;
    }

    // Freeze flows that hit their cap or traverse a saturated link.
    constexpr double kEps = 1e-7;
    bool froze_any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool saturated = rate[f] >= flows[f].cap - kEps;
      for (const auto l : flows[f].links) {
        if (used[l] >= link_capacity[l] - kEps) saturated = true;
      }
      if (saturated) {
        frozen[f] = true;
        froze_any = true;
      }
    }
    if (!froze_any) break;  // numerical safety; should not happen
  }
  return rate;
}

/// The input of max_min_fair_rates() restricted to the links some flow
/// loads. An idle link never bounds the increment and never accumulates
/// usage, so the compact problem yields bit-identical rates, and building
/// and solving it costs O(flows × path length) instead of O(links in the
/// topology) per water-filling iteration. The link→local map is stamped
/// with a per-problem epoch, so reset() is O(1) and the scratch is reused.
class LoadedLinkProblem {
 public:
  explicit LoadedLinkProblem(std::size_t link_count)
      : link_epoch_(link_count, 0), link_local_(link_count, 0) {}

  /// Starts a new, empty problem.
  void reset() {
    ++epoch_;
    caps_.clear();
    n_flows_ = 0;
  }

  /// Appends a flow over global link ids. `capacity_of(link)` is read once
  /// per link per problem, when the link is first loaded.
  template <typename CapacityOf>
  void add_flow(const std::vector<std::uint32_t>& links, Rate cap, CapacityOf&& capacity_of) {
    if (n_flows_ == flows_.size()) flows_.emplace_back();
    FairFlowDesc& d = flows_[n_flows_++];
    d.links.clear();
    for (const std::uint32_t l : links) {
      if (link_epoch_[l] != epoch_) {
        link_epoch_[l] = epoch_;
        link_local_[l] = static_cast<std::uint32_t>(caps_.size());
        caps_.push_back(capacity_of(l));
      }
      d.links.push_back(link_local_[l]);
    }
    d.cap = cap;
  }

  /// One rate per added flow, in insertion order.
  std::vector<Rate> solve() {
    flows_.resize(n_flows_);
    return max_min_fair_rates(caps_, flows_);
  }

  /// Links loaded by the current problem.
  std::size_t loaded_links() const { return caps_.size(); }

 private:
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_epoch_;   // == epoch_: link mapped this problem
  std::vector<std::uint32_t> link_local_;   // global link id → local index
  std::vector<Rate> caps_;                  // by local index
  std::vector<FairFlowDesc> flows_;
  std::size_t n_flows_ = 0;
};

/// Incremental max-min fair-share solver over the flow–link conflict graph.
///
/// Usage: mutate (add_flow / remove_flow / set_flow_cap / set_link_capacity,
/// any number of them), then commit(). commit() gathers the connected
/// component(s) reachable from the dirtied links, water-fills each with the
/// same progressive-filling math as max_min_fair_rates(), and returns the
/// ids (ascending) whose rates were re-solved. Everything outside those
/// components is untouched — that is the whole point.
///
/// Determinism: flows are kept per-link in ascending-id vectors and every
/// traversal/solve iterates flows by ascending id and links by ascending
/// id, so same inputs ⇒ same floating-point operation order ⇒ same rates.
class FairShareEngine {
 public:
  explicit FairShareEngine(std::vector<Rate> link_capacity)
      : caps_(std::move(link_capacity)), link_flows_(caps_.size()), link_mark_(caps_.size(), 0) {}

  std::size_t flow_count() const { return flows_.size(); }

  /// Flows on `link`, ascending id — serves O(flows-on-link) link_load.
  const std::vector<std::uint64_t>& flows_on_link(std::uint32_t link) const {
    return link_flows_[link];
  }

  Rate rate(std::uint64_t id) const { return flows_.at(id).rate; }
  Rate flow_cap(std::uint64_t id) const { return flows_.at(id).cap; }

  /// `links` must be valid indices into the capacity vector. Loopback flows
  /// (empty link list) are rated at their cap immediately and never join a
  /// component.
  void add_flow(std::uint64_t id, const std::vector<std::uint32_t>& links, Rate cap) {
    assert(!flows_.contains(id));
    EFlow f;
    f.links = links;
    f.cap = cap;
    f.rate = links.empty() ? cap : 0.0;
    for (const std::uint32_t l : links) {
      // Ids are handed out monotonically by Network, so push_back keeps the
      // per-link vectors sorted; assert it to keep other callers honest.
      assert(link_flows_[l].empty() || link_flows_[l].back() < id);
      link_flows_[l].push_back(id);
      dirty_links_.push_back(l);
    }
    flows_.emplace(id, std::move(f));
  }

  void remove_flow(std::uint64_t id) {
    const auto it = flows_.find(id);
    assert(it != flows_.end());
    for (const std::uint32_t l : it->second.links) {
      auto& v = link_flows_[l];
      v.erase(std::lower_bound(v.begin(), v.end(), id));
      dirty_links_.push_back(l);
    }
    flows_.erase(it);
  }

  /// A flow's cap changes at its TCP phase boundaries (slow start → steady,
  /// policing) — same component machinery as a topology change.
  void set_flow_cap(std::uint64_t id, Rate cap) {
    EFlow& f = flows_.at(id);
    if (f.cap == cap) return;
    f.cap = cap;
    if (f.links.empty()) {
      f.rate = cap;
      return;
    }
    for (const std::uint32_t l : f.links) dirty_links_.push_back(l);
  }

  void set_link_capacity(std::uint32_t link, Rate capacity) {
    if (caps_[link] == capacity) return;
    caps_[link] = capacity;
    dirty_links_.push_back(link);
  }

  /// Re-solves the affected component(s). Returns the ids (ascending,
  /// deduplicated) whose rates were re-solved; the vector is owned by the
  /// engine and valid until the next commit(). No dirty links ⇒ empty.
  const std::vector<std::uint64_t>& commit() {
    affected_.clear();
    if (dirty_links_.empty()) return affected_;

    // Flood the conflict graph from the dirty links: a link pulls in its
    // flows, a flow pulls in its links. Marks are monotone epochs so no
    // per-commit clearing is needed.
    ++epoch_;
    comp_links_.clear();
    for (const std::uint32_t l : dirty_links_) visit_link(l);
    dirty_links_.clear();
    // BFS worklist: affected_ doubles as the flow queue (it only grows).
    for (std::size_t i = 0; i < affected_.size(); ++i) {
      for (const std::uint32_t l : flows_.at(affected_[i]).links) visit_link(l);
    }
    if (affected_.empty()) return affected_;
    std::sort(affected_.begin(), affected_.end());
    std::sort(comp_links_.begin(), comp_links_.end());

    solve_component();
    return affected_;
  }

 private:
  struct EFlow {
    std::vector<std::uint32_t> links;
    Rate cap = std::numeric_limits<Rate>::infinity();
    Rate rate = 0;
    std::uint64_t mark = 0;      // epoch when last pulled into a component
    std::uint32_t local = 0;     // scratch index during solve_component()
  };

  void visit_link(std::uint32_t l) {
    if (link_mark_[l] == epoch_) return;
    link_mark_[l] = epoch_;
    comp_links_.push_back(l);
    for (const std::uint64_t id : link_flows_[l]) {
      EFlow& f = flows_.at(id);
      if (f.mark == epoch_) continue;
      f.mark = epoch_;
      affected_.push_back(id);
    }
  }

  /// Progressive filling over the gathered component, arithmetic-for-
  /// arithmetic the algorithm of max_min_fair_rates() restricted to the
  /// component (flows ascending id, links ascending id).
  void solve_component() {
    const std::size_t nf = affected_.size();
    const std::size_t nl = comp_links_.size();
    rate_.assign(nf, 0.0);
    frozen_.assign(nf, 0);
    used_.assign(nl, 0.0);
    active_.assign(nl, 0);
    // Map global link ids to component-local ones via the epoch marks:
    // link_local_ is only read for links whose mark equals the epoch.
    link_local_.resize(link_mark_.size());
    for (std::size_t i = 0; i < nl; ++i) link_local_[comp_links_[i]] = static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < nf; ++i) flows_.at(affected_[i]).local = static_cast<std::uint32_t>(i);

    for (;;) {
      std::fill(active_.begin(), active_.end(), 0u);
      bool any_unfrozen = false;
      for (std::size_t i = 0; i < nf; ++i) {
        if (frozen_[i] != 0) continue;
        any_unfrozen = true;
        for (const std::uint32_t l : flows_.at(affected_[i]).links) ++active_[link_local_[l]];
      }
      if (!any_unfrozen) break;

      double increment = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < nl; ++i) {
        if (active_[i] == 0) continue;
        increment = std::min(increment, (caps_[comp_links_[i]] - used_[i]) / active_[i]);
      }
      for (std::size_t i = 0; i < nf; ++i) {
        if (frozen_[i] == 0) {
          increment = std::min(increment, flows_.at(affected_[i]).cap - rate_[i]);
        }
      }
      if (increment < 0) increment = 0;

      for (std::size_t i = 0; i < nf; ++i) {
        if (frozen_[i] != 0) continue;
        rate_[i] += increment;
        for (const std::uint32_t l : flows_.at(affected_[i]).links) used_[link_local_[l]] += increment;
      }

      constexpr double kEps = 1e-7;
      bool froze_any = false;
      for (std::size_t i = 0; i < nf; ++i) {
        if (frozen_[i] != 0) continue;
        const EFlow& f = flows_.at(affected_[i]);
        bool saturated = rate_[i] >= f.cap - kEps;
        for (const std::uint32_t l : f.links) {
          const std::uint32_t ll = link_local_[l];
          if (used_[ll] >= caps_[comp_links_[ll]] - kEps) saturated = true;
        }
        if (saturated) {
          frozen_[i] = 1;
          froze_any = true;
        }
      }
      if (!froze_any) break;  // numerical safety; should not happen
    }

    for (std::size_t i = 0; i < nf; ++i) flows_.at(affected_[i]).rate = rate_[i];
  }

  std::vector<Rate> caps_;
  // Ordered by id (= admission order): determinism rule R3 — solve order
  // and therefore floating-point summation order must not depend on hash
  // layout. Lookups are O(log F); traversals all go through the sorted
  // per-link vectors.
  std::map<std::uint64_t, EFlow> flows_;
  std::vector<std::vector<std::uint64_t>> link_flows_;

  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint32_t> link_local_;
  std::vector<std::uint32_t> dirty_links_;
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint64_t> affected_;
  // solve_component() scratch, reused across commits to stay allocation-free
  // on the hot path.
  std::vector<Rate> rate_;
  std::vector<std::uint8_t> frozen_;
  std::vector<Rate> used_;
  std::vector<std::uint32_t> active_;
};

}  // namespace c4h::net
