// Max-min fair bandwidth allocation with per-flow rate caps
// (progressive filling / water-filling).
//
// Given link capacities and the set of links each flow traverses, computes
// the classic max-min fair allocation: rates are raised together until a
// link saturates or a flow hits its own cap; saturated flows freeze and the
// rest continue. This is the standard flow-level model of TCP bandwidth
// sharing on a shared bottleneck (home LAN vs the thin cloud uplink).
//
// max_min_fair_rates() is the one solver. Network calls it on every network
// event through LoadedLinkProblem, which hands it only the links that carry
// a flow; called directly over every link it is the reference the
// loaded-links-only problem is tested against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
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

}  // namespace c4h::net
