// Property tests for the incremental max-min fair-share engine.
//
// FairShareEngine (src/net/fairshare.hpp) re-solves only the affected
// connected component of the flow–link conflict graph; the one-shot
// max_min_fair_rates() water-filling is the semantic reference. The core
// property, checked across 120 seeds of randomized topologies and mutation
// histories: after every commit, EVERY flow's engine rate — affected or
// not — matches a from-scratch global solve of the current state to within
// 1e-9 relative error. That "or not" clause is the point: it proves the
// component cut never strands a flow with a stale rate.
//
// The Network-level suite then drives real transfers under the global and
// incremental models and requires near-identical completion times, plus
// exercises the per-link flow index that serves O(flows-on-link) link_load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/fairshare.hpp"
#include "src/net/network.hpp"
#include "src/net/tcp_model.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulation.hpp"

namespace c4h::net {
namespace {

constexpr double kTol = 1e-9;

struct ShadowFlow {
  std::vector<std::uint32_t> links;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

// From-scratch reference solve of the shadow state. Ordered map: flows are
// presented to the solver ascending by id, matching the engine's order.
std::map<std::uint64_t, Rate> reference_rates(const std::vector<Rate>& caps,
                                              const std::map<std::uint64_t, ShadowFlow>& flows) {
  std::vector<std::uint64_t> ids;
  std::vector<FairFlowDesc> descs;
  ids.reserve(flows.size());
  descs.reserve(flows.size());
  for (const auto& [id, f] : flows) {
    ids.push_back(id);
    FairFlowDesc d;
    d.links = f.links;
    d.cap = f.cap;
    descs.push_back(std::move(d));
  }
  const std::vector<Rate> rates = max_min_fair_rates(caps, descs);
  std::map<std::uint64_t, Rate> out;
  for (std::size_t i = 0; i < ids.size(); ++i) out[ids[i]] = rates[i];
  return out;
}

void expect_engine_matches_reference(const FairShareEngine& eng, const std::vector<Rate>& caps,
                                     const std::map<std::uint64_t, ShadowFlow>& flows,
                                     const std::string& context) {
  const auto ref_rates = reference_rates(caps, flows);
  ASSERT_EQ(eng.flow_count(), flows.size()) << context;
  for (const auto& [id, want] : ref_rates) {
    const Rate got = eng.rate(id);
    if (got == want) continue;  // also covers the infinite-cap loopback case
    const double scale = std::max(1.0, std::fabs(want));
    EXPECT_LE(std::fabs(got - want), kTol * scale)
        << context << ": flow " << id << " engine=" << got << " reference=" << want;
  }
}

TEST(FairShareProperty, IncrementalMatchesGlobalAcross120Seeds) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng{seed};
    const auto n_links = static_cast<std::uint32_t>(2 + rng.below(9));
    std::vector<Rate> caps;
    caps.reserve(n_links);
    for (std::uint32_t l = 0; l < n_links; ++l) {
      caps.push_back(rng.uniform(1e4, 2e7));
    }

    FairShareEngine eng{caps};
    std::map<std::uint64_t, ShadowFlow> shadow;
    std::uint64_t next_id = 1;

    const int ops = 40;
    for (int op = 0; op < ops; ++op) {
      const std::string context =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const std::uint64_t kind = rng.below(10);
      if (kind < 4 || shadow.empty()) {
        // Admit a flow over 1..4 distinct random links (occasionally zero
        // links: a loopback flow, rated at its own cap).
        ShadowFlow f;
        const auto n_path = rng.below(5);  // 0..4
        std::vector<std::uint32_t> pool(n_links);
        for (std::uint32_t l = 0; l < n_links; ++l) pool[l] = l;
        for (std::uint64_t k = 0; k < n_path && !pool.empty(); ++k) {
          const auto pick = rng.below(pool.size());
          f.links.push_back(pool[pick]);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        std::sort(f.links.begin(), f.links.end());
        f.cap = rng.below(4) == 0 ? std::numeric_limits<Rate>::infinity()
                                  : rng.uniform(5e3, 1e7);
        const std::uint64_t id = next_id++;
        eng.add_flow(id, f.links, f.cap);
        shadow.emplace(id, f);
      } else if (kind < 6) {
        // Remove a random existing flow.
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(shadow.size())));
        eng.remove_flow(it->first);
        shadow.erase(it);
      } else if (kind < 8) {
        // Retune a random flow's cap (a TCP phase change).
        auto it = shadow.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(shadow.size())));
        it->second.cap = rng.uniform(5e3, 1e7);
        eng.set_flow_cap(it->first, it->second.cap);
      } else {
        // Resize a random link (congestion, ISP throttling).
        const auto l = static_cast<std::uint32_t>(rng.below(n_links));
        caps[l] = rng.uniform(1e4, 2e7);
        eng.set_link_capacity(l, caps[l]);
      }
      eng.commit();
      expect_engine_matches_reference(eng, caps, shadow, context);
    }

    // Drain: removals must keep the survivors correct all the way down.
    while (!shadow.empty()) {
      eng.remove_flow(shadow.begin()->first);
      shadow.erase(shadow.begin());
      eng.commit();
      expect_engine_matches_reference(eng, caps, shadow,
                                      "seed " + std::to_string(seed) + " drain");
    }
    EXPECT_EQ(eng.flow_count(), 0u);
  }
}

TEST(FairShareProperty, CommitIsDeterministic) {
  // Same mutation history twice ⇒ bitwise-identical rates, not merely close.
  const auto run = [](std::vector<Rate>* rates_out) {
    std::vector<Rate> caps{1e6, 2e6, 5e5, 3e6};
    FairShareEngine eng{caps};
    eng.add_flow(1, {0, 1}, 8e5);
    eng.add_flow(2, {1, 2}, std::numeric_limits<Rate>::infinity());
    eng.add_flow(3, {0, 2, 3}, 6e5);
    eng.commit();
    eng.set_flow_cap(2, 4e5);
    eng.set_link_capacity(2, 9e5);
    eng.remove_flow(1);
    eng.commit();
    for (const std::uint64_t id : {2ull, 3ull}) rates_out->push_back(eng.rate(id));
  };
  std::vector<Rate> a;
  std::vector<Rate> b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
}

TEST(FairShareEngineTest, UntouchedComponentIsNotResolved) {
  // Two disjoint components; mutating one must not report (or perturb) the
  // other. commit() returns the affected ids — that contract is what keeps
  // an event O(component).
  FairShareEngine eng{{1e6, 1e6, 1e6, 1e6}};
  eng.add_flow(1, {0}, std::numeric_limits<Rate>::infinity());
  eng.add_flow(2, {0, 1}, std::numeric_limits<Rate>::infinity());
  eng.add_flow(3, {2, 3}, std::numeric_limits<Rate>::infinity());
  eng.commit();
  const Rate lone = eng.rate(3);

  eng.set_flow_cap(1, 2e5);
  const std::vector<std::uint64_t> affected = eng.commit();
  EXPECT_EQ(affected, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(eng.rate(3), lone);  // bitwise untouched, not recomputed
}

TEST(FairShareEngineTest, FlowsOnLinkStaysSortedAndExact) {
  FairShareEngine eng{{1e6, 1e6}};
  eng.add_flow(1, {0}, 1e5);
  eng.add_flow(2, {0, 1}, 1e5);
  eng.add_flow(3, {0}, 1e5);
  eng.commit();
  EXPECT_EQ(eng.flows_on_link(0), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(eng.flows_on_link(1), (std::vector<std::uint64_t>{2}));
  eng.remove_flow(2);
  eng.commit();
  EXPECT_EQ(eng.flows_on_link(0), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_TRUE(eng.flows_on_link(1).empty());
}

// ---- Loaded-links-only solve -------------------------------------------------

TEST(LoadedLinkProblemTest, MatchesFullSolveBitForBitWithManyIdleLinks) {
  // The global model solves only the links some flow loads. On random
  // problems where most links are idle, those rates must equal the full
  // solve's exactly (==, not within a tolerance). One problem object is
  // reused across all seeds, so a stale link mapping would show up too.
  LoadedLinkProblem problem{64};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng{seed};
    std::vector<Rate> caps(64);
    for (Rate& c : caps) c = rng.uniform(1e4, 2e7);
    // Flows load links from a random subset of 3..10 of the 64.
    std::vector<std::uint32_t> hot;
    const auto n_hot = 3 + rng.below(8);
    while (hot.size() < n_hot) {
      const auto l = static_cast<std::uint32_t>(rng.below(caps.size()));
      if (std::find(hot.begin(), hot.end(), l) == hot.end()) hot.push_back(l);
    }
    std::vector<FairFlowDesc> flows(1 + rng.below(12));
    problem.reset();
    for (FairFlowDesc& f : flows) {
      const auto n_path = rng.below(4);  // 0..3 links; 0 is loopback
      for (std::uint64_t k = 0; k < n_path; ++k) {
        const std::uint32_t l = hot[rng.below(hot.size())];
        if (std::find(f.links.begin(), f.links.end(), l) == f.links.end()) f.links.push_back(l);
      }
      f.cap = rng.below(4) == 0 ? std::numeric_limits<Rate>::infinity() : rng.uniform(5e3, 1e7);
      problem.add_flow(f.links, f.cap, [&caps](std::uint32_t l) { return caps[l]; });
    }
    EXPECT_LE(problem.loaded_links(), hot.size()) << "seed " << seed;
    EXPECT_EQ(problem.solve(), max_min_fair_rates(caps, flows)) << "seed " << seed;
  }
}

// ---- Network-level equivalence ---------------------------------------------

struct Star {
  sim::Simulation sim;
  Topology topo;
  NetNodeId hub;
  std::vector<NetNodeId> leafs;

  explicit Star(std::uint64_t seed, int n_leafs) : sim{seed} {
    hub = topo.add_node();
    for (int i = 0; i < n_leafs; ++i) {
      leafs.push_back(topo.add_node());
      topo.add_duplex(leafs.back(), hub, mib_per_sec(8.0), milliseconds(1));
    }
  }
};

// Runs the same randomized transfer program under `model` and returns each
// transfer's completion time in nanoseconds.
std::vector<std::int64_t> run_program(NetModel model, std::uint64_t seed) {
  Star star{seed, 6};
  Network net{star.sim, std::move(star.topo)};
  net.set_model(model);

  Rng rng{seed * 977 + 3};
  struct Xfer {
    NetNodeId src, dst;
    Bytes size;
    Duration start;
  };
  std::vector<Xfer> plan;
  for (int i = 0; i < 24; ++i) {
    const auto a = rng.below(star.leafs.size());
    auto b = rng.below(star.leafs.size());
    if (b == a) b = (b + 1) % star.leafs.size();
    plan.push_back({star.leafs[a], star.leafs[b],
                    64_KB + static_cast<Bytes>(rng.below(6)) * 96_KB,
                    milliseconds(static_cast<std::int64_t>(rng.below(400)))});
  }
  // Completion times keyed by transfer index, not completion order — two
  // near-simultaneous completions may legally swap order across models.
  std::vector<std::int64_t> done_at(plan.size(), -1);
  const auto one = [](sim::Simulation& sm, Network& nw, Xfer x, std::int64_t& out) -> sim::Task<> {
    co_await sm.delay(x.start);
    co_await nw.transfer(x.src, x.dst, x.size);
    out = sm.now().count();
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    star.sim.spawn(one(star.sim, net, plan[i], done_at[i]));
  }
  star.sim.run();
  for (const std::int64_t t : done_at) EXPECT_GE(t, 0);
  EXPECT_EQ(net.stats().flows_completed, plan.size());
  EXPECT_EQ(net.active_flows(), 0u);
  return done_at;
}

TEST(NetworkModelEquivalence, IncrementalCompletionTimesMatchGlobal) {
  // Identical rate trajectories (to 1e-9) mean completion events land within
  // sub-microsecond of each other on multi-second transfers.
  for (const std::uint64_t seed : {5ull, 29ull, 101ull}) {
    const auto global = run_program(NetModel::global, seed);
    const auto incremental = run_program(NetModel::incremental, seed);
    ASSERT_EQ(global.size(), incremental.size());
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_LE(std::llabs(global[i] - incremental[i]), 1000)
          << "seed " << seed << " transfer " << i << ": global " << global[i]
          << "ns vs incremental " << incremental[i] << "ns";
    }
  }
}

TEST(NetworkModelEquivalence, AnalyticalModelCompletesTheSameProgram) {
  // The closed-form model promises plausibility, not equivalence: every
  // transfer must still finish, monotonically and deterministically.
  const auto a = run_program(NetModel::analytical, 7);
  const auto b = run_program(NetModel::analytical, 7);
  EXPECT_EQ(a, b);
}

TEST(NetworkLinkLoad, IndexMatchesFlowRatesWhileInFlight) {
  Star star{21, 3};
  const auto up0 = star.topo.route(star.leafs[0], star.hub);  // leaf0 -> hub link
  ASSERT_EQ(up0.size(), 1u);
  const LinkId shared = up0[0];
  Network net{star.sim, std::move(star.topo)};

  // Two flows out of leaf0 share its uplink; each gets half the 8 MiB/s.
  const auto go = [](sim::Simulation&, Network& nw, NetNodeId s, NetNodeId d,
                     Bytes sz) -> sim::Task<> { co_await nw.transfer(s, d, sz, TcpProfile{}); };
  star.sim.spawn(go(star.sim, net, star.leafs[0], star.leafs[1], 4_MB));
  star.sim.spawn(go(star.sim, net, star.leafs[0], star.leafs[2], 4_MB));
  star.sim.run_until(star.sim.now() + milliseconds(600));

  const Rate load = net.link_load(shared);
  EXPECT_EQ(net.active_flows(), 2u);
  EXPECT_GT(load, 0.0);
  EXPECT_LE(load, mib_per_sec(8.0) * (1.0 + 1e-9));
  // Max-min on one saturated link: the two flows split it exactly.
  EXPECT_NEAR(load, mib_per_sec(8.0), mib_per_sec(8.0) * 1e-6);
  EXPECT_EQ(net.link_load(shared + 1), 0.0);  // reverse direction is idle
  star.sim.run();
}

}  // namespace
}  // namespace c4h::net
