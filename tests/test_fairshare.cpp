// Tests for the max-min fair-share flow engine.
//
// The loaded-links-only solve (LoadedLinkProblem, what Network::recompute
// hands the solver) must equal the one-shot max_min_fair_rates() over every
// link bit for bit. The Network-level property test then drives seeded
// random programs over the real feature surface — slow-start and policed
// TCP profiles, striped transfers, a mid-flight capacity cut and restore,
// completions that start follow-on transfers — and checks that no link is
// ever loaded past its capacity, that every requested byte is delivered,
// and that a seed replays to the same completion times.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

// ---- Network-level property -------------------------------------------------

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

struct ProgramRun {
  std::vector<std::int64_t> done_ns;  // by transfer index, follow-ons last
  Bytes requested = 0;
  Rate uplink_load_at_cut = 0;
};

// Runs a seeded random transfer program over a star of LAN leafs plus a
// jittered WAN uplink to a cloud node, checking link loads after every
// simulation step.
ProgramRun run_program(std::uint64_t seed) {
  Star star{seed, 6};
  const NetNodeId cloud = star.topo.add_node();
  const LinkId uplink =
      star.topo.add_duplex(star.hub, cloud, mib_per_sec(2.0), milliseconds(18), 0.0, 0.3).first;
  const Rate uplink_cap = star.topo.link(uplink).capacity;
  Network net{star.sim, std::move(star.topo)};

  Rng rng{seed * 977 + 3};
  const auto profile = [&rng] {
    TcpProfile p;
    p.rtt = milliseconds(40);
    p.window_cap = 256 * 1024;
    const auto kind = rng.below(4);
    if (kind == 1 || kind == 3) p.slow_start_bytes = 128_KB;  // slow start
    if (kind >= 2) {                                          // policed
      p.policing_burst = 256_KB;
      p.policed_fraction = 0.4;
    }
    return p;
  };
  struct Xfer {
    NetNodeId src, dst;
    Bytes size;
    Duration start;
    TcpProfile profile;
    int streams;
    int follow_on;  // index of the transfer started on completion, or -1
  };
  std::vector<Xfer> plan;
  const auto endpoint = [&] {
    const auto i = rng.below(star.leafs.size() + 1);
    return i == star.leafs.size() ? cloud : star.leafs[i];
  };
  const auto random_xfer = [&](Duration start) {
    const NetNodeId a = endpoint();
    NetNodeId b = endpoint();
    while (b == a) b = endpoint();
    const int streams = rng.below(3) == 0 ? 2 + static_cast<int>(rng.below(3)) : 1;
    return Xfer{a, b, 64_KB + static_cast<Bytes>(rng.below(6)) * 96_KB, start, profile(),
                streams, -1};
  };
  for (int i = 0; i < 24; ++i) {
    plan.push_back(random_xfer(milliseconds(static_cast<std::int64_t>(rng.below(400)))));
  }
  // At least one upload is still on the uplink when its capacity is cut.
  plan[0].src = star.leafs[0];
  plan[0].dst = cloud;
  plan[0].size = 2_MB;
  plan[0].start = Duration::zero();
  // A quarter of the transfers start a follow-on from their completion.
  for (std::size_t i = 0; i < 24; ++i) {
    if (rng.below(4) != 0) continue;
    plan[i].follow_on = static_cast<int>(plan.size());
    plan.push_back(random_xfer(Duration::zero()));
  }

  ProgramRun run;
  run.done_ns.assign(plan.size(), -1);
  for (const Xfer& x : plan) run.requested += x.size;
  struct Runner {
    sim::Simulation& sim;
    Network& net;
    const std::vector<Xfer>& plan;
    std::vector<std::int64_t>& done_ns;

    sim::Task<> one(std::size_t i) {
      const Xfer& x = plan[i];
      co_await sim.delay(x.start);
      co_await net.transfer_striped(x.src, x.dst, x.size, x.profile, x.streams);
      done_ns[i] = sim.now().count();
      if (x.follow_on >= 0) sim.spawn(one(static_cast<std::size_t>(x.follow_on)));
    }
  };
  Runner runner{star.sim, net, plan, run.done_ns};
  for (std::size_t i = 0; i < 24; ++i) star.sim.spawn(runner.one(i));

  // The uplink drops to a quarter of its capacity mid-flight, then recovers.
  const auto flap = [](sim::Simulation& sm, Network& nw, LinkId l, Rate cap,
                       Rate& load_at_cut) -> sim::Task<> {
    co_await sm.delay(milliseconds(250));
    load_at_cut = nw.link_load(l);
    nw.set_link_capacity(l, cap / 4);
    co_await sm.delay(milliseconds(600));
    nw.set_link_capacity(l, cap);
  };
  star.sim.spawn(flap(star.sim, net, uplink, uplink_cap, run.uplink_load_at_cut));

  const std::size_t n_links = net.topology().link_count();
  while (star.sim.step()) {
    for (LinkId l = 0; l < n_links; ++l) {
      const Rate cap = net.topology().link(l).capacity;
      EXPECT_LE(net.link_load(l), cap * (1.0 + 1e-9))
          << "seed " << seed << " link " << l << " at " << star.sim.now().count() << "ns";
    }
  }

  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(run.done_ns[i], 0) << "seed " << seed << " transfer " << i << " never completed";
  }
  EXPECT_EQ(net.stats().bytes_delivered, static_cast<double>(run.requested)) << "seed " << seed;
  EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
  return run;
}

TEST(NetworkProperty, RandomProgramsStayWithinCapacityAndDeliverEveryByte) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ProgramRun first = run_program(seed);
    EXPECT_GT(first.uplink_load_at_cut, 0.0) << "seed " << seed << ": the cut must land mid-flight";
    const ProgramRun again = run_program(seed);
    EXPECT_EQ(first.done_ns, again.done_ns) << "seed " << seed;
  }
}

TEST(NetworkLinkLoad, MatchesFlowRatesWhileInFlight) {
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
