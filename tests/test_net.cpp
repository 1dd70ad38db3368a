// Network substrate: topology routing, fair-share solver, TCP phase model,
// and the event-driven flow engine (contention, phase boundaries, jitter).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/federation/neighborhood.hpp"
#include "src/net/fairshare.hpp"
#include "src/net/network.hpp"
#include "src/net/tcp_model.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/sync.hpp"
#include "src/vstore/home_cloud.hpp"

namespace c4h::net {
namespace {

using sim::Simulation;
using sim::Task;

// --- Topology ---

TEST(Topology, RouteThroughSwitch) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  const auto sw = t.add_node();
  t.add_duplex(a, sw, mbps(100), milliseconds(1));
  t.add_duplex(b, sw, mbps(100), milliseconds(1));
  const auto& path = t.route(a, b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(t.link(path[0]).from.v, a.v);
  EXPECT_EQ(t.link(path[1]).to.v, b.v);
  EXPECT_EQ(t.path_latency(a, b), milliseconds(2));
}

TEST(Topology, PrefersLowerLatencyPath) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  const auto slow_mid = t.add_node();
  const auto fast_mid = t.add_node();
  t.add_duplex(a, slow_mid, mbps(100), milliseconds(10));
  t.add_duplex(slow_mid, b, mbps(100), milliseconds(10));
  t.add_duplex(a, fast_mid, mbps(100), milliseconds(1));
  t.add_duplex(fast_mid, b, mbps(100), milliseconds(1));
  EXPECT_EQ(t.path_latency(a, b), milliseconds(2));
}

TEST(Topology, NoRouteDetected) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  EXPECT_FALSE(t.has_route(a, b));
  EXPECT_TRUE(t.has_route(a, a));
}

TEST(Topology, UnreachableRouteThrowsNamingThePair) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  const auto c = t.add_node();
  t.add_link(a, b, mbps(100), milliseconds(1));  // b is a dead end: nothing leaves it
  EXPECT_EQ(t.route(a, b).size(), 1u);
  try {
    const auto path = t.route(b, c);
    FAIL() << "route() returned " << path.size() << " links for an unreachable pair";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("from node 1 to node 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(t.path_latency(a, c), std::out_of_range);
  std::vector<LinkId> out{7};
  EXPECT_THROW(t.append_route(c, a, out), std::out_of_range);
  EXPECT_EQ(out, std::vector<LinkId>{7});  // a failed query appends nothing
}

// Out-links per node in id order: the order Topology relaxes them in.
std::vector<std::vector<LinkId>> out_links(const Topology& t) {
  std::vector<std::vector<LinkId>> out(t.node_count());
  for (LinkId l = 0; l < t.link_count(); ++l) out[t.link(l).from.v].push_back(l);
  return out;
}

// The per-pair search every route used to be: early-exit Dijkstra with
// strict-< relaxation and a (distance, node) min-heap. No memo and no
// reduction, so it is the oracle for both.
std::optional<std::vector<LinkId>> oracle_route(const Topology& t,
                                                const std::vector<std::vector<LinkId>>& out,
                                                std::uint32_t s, std::uint32_t d) {
  const std::size_t n = t.node_count();
  std::vector<Duration> dist(n, Duration::max());
  std::vector<LinkId> via(n, 0);
  using QE = std::pair<Duration, std::uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[s] = Duration::zero();
  pq.push({Duration::zero(), s});
  while (!pq.empty()) {
    const auto [du, u] = pq.top();
    pq.pop();
    if (du > dist[u]) continue;
    if (u == d) {
      std::vector<LinkId> path;
      for (std::uint32_t cur = d; cur != s; cur = t.link(via[cur]).from.v) path.push_back(via[cur]);
      return std::vector<LinkId>(path.rbegin(), path.rend());
    }
    for (const LinkId l : out[u]) {
      const std::uint32_t v = t.link(l).to.v;
      if (du + t.link(l).latency < dist[v]) {
        dist[v] = du + t.link(l).latency;
        via[v] = l;
        pq.push({dist[v], v});
      }
    }
  }
  return std::nullopt;
}

// Grows `t` by one round of the shapes the reduction must get right: a
// random core with one-way and parallel links, chains of degree-1 leaves
// hung off any existing node, a one-link node whose only out-link (and one
// whose only in-link) is a self-loop, a node with no in-links, a cycle of
// one-out-link nodes, and an isolated node. Latencies of 0-3 ms make
// equal-latency ties common.
void grow_random(Topology& t, Rng& rng) {
  const auto lat = [&rng] { return milliseconds(static_cast<std::int64_t>(rng.below(4))); };
  const auto any = [&t, &rng] {
    return NetNodeId{static_cast<std::uint32_t>(rng.below(t.node_count()))};
  };
  const Rate cap = mbps(100);
  std::vector<NetNodeId> core;
  for (std::uint64_t i = 0, k = 2 + rng.below(6); i < k; ++i) core.push_back(t.add_node());
  const auto pick = [&core, &rng] { return core[rng.below(core.size())]; };
  for (std::uint64_t i = 0, k = 1 + rng.below(3 * core.size()); i < k; ++i) {
    const NetNodeId a = pick();
    const NetNodeId b = pick();
    if (rng.below(3) == 0) {
      t.add_link(a, b, cap, lat());
    } else {
      t.add_duplex(a, b, cap, lat());
    }
    if (rng.below(4) == 0) t.add_link(a, b, cap, lat());  // parallel link
  }
  for (std::uint64_t i = 0, k = rng.below(6); i < k; ++i) {
    NetNodeId parent = any();
    do {  // a chain of leaves, each hanging off the previous one
      const NetNodeId leaf = t.add_node();
      switch (rng.below(4)) {
        case 0: t.add_link(leaf, parent, cap, lat()); break;  // one-way up
        case 1: t.add_link(parent, leaf, cap, lat()); break;  // one-way down
        default: t.add_duplex(leaf, parent, cap, lat()); break;
      }
      parent = leaf;
    } while (rng.below(2) == 0);
  }
  const NetNodeId loop_out = t.add_node();  // only out-link is a self-loop
  t.add_link(loop_out, loop_out, cap, lat());
  t.add_link(any(), loop_out, cap, lat());
  const NetNodeId loop_in = t.add_node();  // only in-link is a self-loop
  t.add_link(loop_in, loop_in, cap, lat());
  t.add_link(loop_in, any(), cap, lat());
  t.add_link(t.add_node(), any(), cap, lat());  // no in-links
  const NetNodeId c0 = t.add_node();            // one-out-link cycle c0→c1→c0
  const NetNodeId c1 = t.add_node();
  t.add_link(c0, c1, cap, lat());
  t.add_link(c1, c0, cap, lat());
  t.add_link(any(), c0, cap, lat());
  t.add_node();  // isolated
}

void expect_routes_match_oracle(const Topology& t, std::uint64_t seed) {
  const auto out = out_links(t);
  const auto n = static_cast<std::uint32_t>(t.node_count());
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t d = 0; d < n; ++d) {
      const auto want = oracle_route(t, out, s, d);
      const NetNodeId a{s};
      const NetNodeId b{d};
      ASSERT_EQ(t.has_route(a, b), want.has_value()) << "seed " << seed << " " << s << "->" << d;
      if (want) {
        ASSERT_EQ(t.route(a, b), *want) << "seed " << seed << " " << s << "->" << d;
      } else {
        ASSERT_THROW(t.route(a, b), std::out_of_range) << "seed " << seed;
      }
    }
  }
}

TEST(TopologyProperty, ReducedRoutesMatchPerPairDijkstra) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng{seed};
    Topology t;
    grow_random(t, rng);
    expect_routes_match_oracle(t, seed);
    // Grow after routes were memoized: first links alone, which give nodes
    // a second out- or in-link and open shortcuts, then a second round of
    // nodes and shapes.
    for (std::uint64_t i = 0, k = 1 + rng.below(4); i < k; ++i) {
      const auto n = t.node_count();
      t.add_link(NetNodeId{static_cast<std::uint32_t>(rng.below(n))},
                 NetNodeId{static_cast<std::uint32_t>(rng.below(n))}, mbps(100),
                 milliseconds(static_cast<std::int64_t>(rng.below(4))));
    }
    expect_routes_match_oracle(t, seed);
    grow_random(t, rng);
    expect_routes_match_oracle(t, seed);
  }
}

// FNV-1a over every ordered pair's route (or its absence).
std::uint64_t all_pairs_route_digest(const Topology& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.node_count());
  mix(t.link_count());
  const auto n = static_cast<std::uint32_t>(t.node_count());
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t d = 0; d < n; ++d) {
      if (!t.has_route(NetNodeId{s}, NetNodeId{d})) {
        mix(UINT64_MAX);
        continue;
      }
      const auto path = t.route(NetNodeId{s}, NetNodeId{d});
      mix(path.size());
      for (const LinkId l : path) mix(l);
    }
  }
  return h;
}

// Digests recorded with the per-pair Dijkstra the reduced routes replaced:
// every route in a small City and in the paper home is unchanged.
TEST(TopologyPinned, CityAndHomeRoutesAreUnchanged) {
  vstore::City city{{.seed = 7, .spines = 2}};
  std::vector<std::unique_ptr<vstore::Neighborhood>> hoods;
  std::vector<std::unique_ptr<vstore::HomeCloud>> homes;
  for (int h = 0; h < 3; ++h) {
    vstore::NeighborhoodConfig nc;
    nc.name = "hood-" + std::to_string(h);
    nc.spine_latency = milliseconds(1 + 3 * h);
    hoods.push_back(std::make_unique<vstore::Neighborhood>(city, nc));
    for (int i = 0; i < 2; ++i) {
      vstore::HomeCloudConfig cfg;
      cfg.home_name = "h" + std::to_string(h) + "-" + std::to_string(i);
      cfg.netbooks = 2;
      homes.push_back(std::make_unique<vstore::HomeCloud>(*hoods.back(), cfg));
    }
  }
  const Topology& ct = city.network().topology();
  EXPECT_EQ(ct.node_count(), 3u + 3u * (1u + 2u * 5u));
  EXPECT_EQ(all_pairs_route_digest(ct), 0x3dd1d1f2bcbf4231ull);

  vstore::HomeCloud home;
  home.bootstrap();
  const Topology& ht = home.network().topology();
  EXPECT_EQ(ht.node_count(), 9u);
  EXPECT_EQ(all_pairs_route_digest(ht), 0xf7b8e31452cf110cull);
}

// --- Fair-share solver ---

TEST(FairShare, EqualSplitOnSharedLink) {
  const std::vector<Rate> caps{100.0};
  std::vector<FairFlowDesc> flows{{{0}, 1e18}, {{0}, 1e18}};
  const auto r = max_min_fair_rates(caps, flows);
  EXPECT_NEAR(r[0], 50.0, 1e-6);
  EXPECT_NEAR(r[1], 50.0, 1e-6);
}

TEST(FairShare, CappedFlowReleasesBandwidth) {
  const std::vector<Rate> caps{100.0};
  std::vector<FairFlowDesc> flows{{{0}, 10.0}, {{0}, 1e18}};
  const auto r = max_min_fair_rates(caps, flows);
  EXPECT_NEAR(r[0], 10.0, 1e-6);
  EXPECT_NEAR(r[1], 90.0, 1e-6);
}

TEST(FairShare, MultiLinkBottleneck) {
  // Flow 0 goes over links 0+1, flow 1 over link 1 only; link 1 is thin.
  const std::vector<Rate> caps{100.0, 30.0};
  std::vector<FairFlowDesc> flows{{{0, 1}, 1e18}, {{1}, 1e18}};
  const auto r = max_min_fair_rates(caps, flows);
  EXPECT_NEAR(r[0], 15.0, 1e-6);
  EXPECT_NEAR(r[1], 15.0, 1e-6);
}

TEST(FairShare, IndependentLinksRunAtCapacity) {
  const std::vector<Rate> caps{100.0, 40.0};
  std::vector<FairFlowDesc> flows{{{0}, 1e18}, {{1}, 1e18}};
  const auto r = max_min_fair_rates(caps, flows);
  EXPECT_NEAR(r[0], 100.0, 1e-6);
  EXPECT_NEAR(r[1], 40.0, 1e-6);
}

TEST(FairShare, LoopbackGetsOwnCap) {
  const std::vector<Rate> caps{10.0};
  std::vector<FairFlowDesc> flows{{{}, 55.0}, {{0}, 1e18}};
  const auto r = max_min_fair_rates(caps, flows);
  EXPECT_NEAR(r[0], 55.0, 1e-6);
  EXPECT_NEAR(r[1], 10.0, 1e-6);
}

TEST(FairShare, ManyFlowsConserveCapacity) {
  const std::vector<Rate> caps{97.0};
  std::vector<FairFlowDesc> flows(13, FairFlowDesc{{0}, 1e18});
  const auto r = max_min_fair_rates(caps, flows);
  double sum = 0;
  for (const auto x : r) sum += x;
  EXPECT_NEAR(sum, 97.0, 1e-5);
  for (const auto x : r) EXPECT_NEAR(x, 97.0 / 13, 1e-6);
}

// --- TCP phase model ---

TEST(TcpModel, SteadyRateIsWindowOverRtt) {
  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 1638400;
  EXPECT_NEAR(p.steady_rate(), 16384000.0, 1.0);
}

TEST(TcpModel, PhasesInOrder) {
  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 1000000;  // steady = 10 MB/s
  p.slow_start_bytes = 500000;
  p.slow_start_fraction = 0.5;
  p.policing_burst = 2000000;
  p.policed_fraction = 0.25;

  EXPECT_NEAR(p.rate_cap(0), 5000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(499999), 5000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(500000), 10000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(1999999), 10000000.0, 1.0);
  EXPECT_NEAR(p.rate_cap(2000000), 2500000.0, 1.0);

  EXPECT_EQ(*p.next_phase_boundary(0), 500000u);
  EXPECT_EQ(*p.next_phase_boundary(500000), 2000000u);
  EXPECT_FALSE(p.next_phase_boundary(2000000).has_value());
}

TEST(TcpModel, EffectiveThroughputPeaksAtMidSizes) {
  // The Fig-5 mechanism: throughput(size) rises through slow-start
  // amortization, then falls once policing kicks in.
  TcpProfile p;
  p.rtt = milliseconds(60);
  p.window_cap = 160000;
  p.slow_start_bytes = 3_MB;
  p.slow_start_fraction = 0.45;
  p.policing_burst = 30_MB;
  p.policed_fraction = 0.55;

  auto tput = [&](Bytes size) {
    return static_cast<double>(size) / to_seconds(analytic_transfer_time(p, size, 1e18));
  };
  const double t_small = tput(1_MB);
  const double t_mid = tput(20_MB);
  const double t_large = tput(100_MB);
  EXPECT_LT(t_small, t_mid);
  EXPECT_GT(t_mid, t_large);
}

// --- Flow engine ---

struct HomePair {
  Topology topo;
  NetNodeId a, b, sw;
};

HomePair make_lan(Rate rate = mbps(100)) {
  HomePair hp;
  hp.a = hp.topo.add_node();
  hp.b = hp.topo.add_node();
  hp.sw = hp.topo.add_node();
  hp.topo.add_duplex(hp.a, hp.sw, rate, microseconds(100));
  hp.topo.add_duplex(hp.b, hp.sw, rate, microseconds(100));
  return hp;
}

Task<> timed_transfer(Network& net, Simulation& sim, NetNodeId s, NetNodeId d, Bytes size,
                      Duration& out, TcpProfile prof = {}) {
  const TimePoint t0 = sim.now();
  co_await net.transfer(s, d, size, prof);
  out = sim.now() - t0;
}

TEST(Network, SingleFlowRunsAtLinkRate) {
  Simulation sim;
  auto hp = make_lan(/*rate=*/10.0 * 1000 * 1000);  // 10 MB/s exactly
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, took));
  sim.run();
  // 10 MB at 10 MB/s = 1 s plus sub-ms path latency.
  EXPECT_NEAR(to_seconds(took), 1.0, 0.01);
}

TEST(Network, TwoFlowsShareTheBottleneck) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t2));
  sim.run();
  // Both flows share a→sw: each gets 5 MB/s → ~2 s.
  EXPECT_NEAR(to_seconds(t1), 2.0, 0.02);
  EXPECT_NEAR(to_seconds(t2), 2.0, 0.02);
}

TEST(Network, LateArrivalSlowsFirstFlow) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn([](Simulation& s, Network& n, HomePair& h, Duration& out) -> Task<> {
    co_await s.delay(milliseconds(500));
    const TimePoint t0 = s.now();
    co_await n.transfer(h.a, h.b, 5 * 1000 * 1000, {});
    out = s.now() - t0;
  }(sim, net, hp, t2));
  sim.run();
  // Flow 1 alone for 0.5 s (5 MB done), then shares: remaining 5 MB at
  // 5 MB/s = 1 s → total 1.5 s. Flow 2: 5 MB at 5 MB/s = 1 s.
  EXPECT_NEAR(to_seconds(t1), 1.5, 0.02);
  EXPECT_NEAR(to_seconds(t2), 1.0, 0.02);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  Duration t1{}, t2{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, t1));
  sim.spawn(timed_transfer(net, sim, hp.b, hp.a, 10 * 1000 * 1000, t2));
  sim.run();
  EXPECT_NEAR(to_seconds(t1), 1.0, 0.02);
  EXPECT_NEAR(to_seconds(t2), 1.0, 0.02);
}

TEST(Network, TcpPhaseBoundariesAreHonored) {
  Simulation sim;
  auto hp = make_lan(100.0 * 1000 * 1000);  // LAN far above TCP cap
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;  // steady 1 MB/s
  p.slow_start_bytes = 1000000;
  p.slow_start_fraction = 0.5;
  p.policing_burst = 2000000;
  p.policed_fraction = 0.5;

  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 3 * 1000 * 1000, took, p));
  sim.run();
  // 1 MB at 0.5 MB/s (2 s) + 1 MB at 1 MB/s (1 s) + 1 MB at 0.5 MB/s (2 s)
  // = 5 s + handshake/latency.
  EXPECT_NEAR(to_seconds(took), 5.0, 0.05);
}

TEST(Network, EventDrivenMatchesAnalyticModel) {
  Simulation sim;
  auto hp = make_lan(mbps(1000));
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(60);
  p.window_cap = 160000;
  p.slow_start_bytes = 3_MB;
  p.slow_start_fraction = 0.45;
  p.policing_burst = 30_MB;
  p.policed_fraction = 0.55;

  for (const Bytes size : {2_MB, 20_MB, 60_MB}) {
    Duration took{};
    sim.spawn(timed_transfer(net, sim, hp.a, hp.b, size, took, p));
    sim.run();
    const Duration analytic = analytic_transfer_time(p, size, mbps(1000));
    EXPECT_NEAR(to_seconds(took), to_seconds(analytic), to_seconds(analytic) * 0.02 + 0.001)
        << "size=" << size;
  }
}

TEST(Network, ZeroSizeTransferCompletes) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 0, took));
  sim.run();
  EXPECT_LT(to_seconds(took), 0.01);
}

TEST(Network, LoopbackTransferIsCheap) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.a, 100_MB, took));
  sim.run();
  EXPECT_LT(to_seconds(took), 0.01);
}

TEST(Network, MessageLatencyIncludesHops) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(milliseconds(1));
  Duration took{};
  sim.spawn([](Simulation& s, Network& n, HomePair& h, Duration& out) -> Task<> {
    const TimePoint t0 = s.now();
    co_await n.send_message(h.a, h.b, 50);
    out = s.now() - t0;
  }(sim, net, hp, took));
  sim.run();
  // 2 hops × (0.1 ms latency + 1 ms processing) ≈ 2.2 ms.
  EXPECT_NEAR(to_milliseconds(took), 2.2, 0.3);
}

TEST(Network, JitteredLinkProducesVariableRates) {
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 1000 * 1000, milliseconds(30), /*latency_jitter=*/0.3, /*rate_jitter=*/0.5);

  Simulation sim{7};
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());
  Samples times;
  for (int i = 0; i < 30; ++i) {
    Duration took{};
    sim.spawn(timed_transfer(net, sim, a, b, 1000 * 1000, took));
    sim.run();
    times.add(to_seconds(took));
  }
  EXPECT_GT(times.stddev() / times.mean(), 0.1);  // visible variability
  EXPECT_GT(times.min(), 0.2);                    // bounded by jitter clamp
}

TEST(Network, StatsAreTracked) {
  Simulation sim;
  auto hp = make_lan();
  Network net{sim, std::move(hp.topo)};
  Duration took{};
  sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 1_MB, took));
  sim.spawn([](Network& n, HomePair& h) -> Task<> {
    co_await n.send_message(h.a, h.b);
  }(net, hp));
  sim.run();
  EXPECT_EQ(net.stats().flows_started, 1u);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_NEAR(net.stats().bytes_delivered, 1024.0 * 1024.0, 1.0);
}

// Property sweep: N concurrent flows through one bottleneck finish together
// and conserve capacity.
class ContentionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContentionSweep, NFlowsFinishInNTimesSingleFlowTime) {
  const int n = GetParam();
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  std::vector<Duration> times(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 10 * 1000 * 1000, times[static_cast<std::size_t>(i)]));
  }
  sim.run();
  for (const auto& t : times) {
    EXPECT_NEAR(to_seconds(t), static_cast<double>(n), 0.05 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, ContentionSweep, ::testing::Values(1, 2, 3, 5, 8));

// --- Pinned global-model program --------------------------------------------
//
// One program over the global model's whole feature surface: slow-start and
// policed TCP profiles, a jittered WAN uplink, striped transfers, mid-flight
// capacity changes, transfers chained off completions, and idle links that
// no flow ever loads. The expected completion times were recorded before the
// model moved to one network-wide timer and a loaded-links-only solve; both
// changes must leave every one of them (and the executed-event count)
// exactly where it was.

struct PinnedRun {
  std::vector<std::int64_t> done_ns;  // by op index, not completion order
  std::uint64_t events = 0;
};

PinnedRun run_pinned_program() {
  Topology t;
  const auto sw = t.add_node();
  const auto gw = t.add_node();
  const auto cloud = t.add_node();
  std::vector<NetNodeId> hosts;
  for (int i = 0; i < 5; ++i) {
    hosts.push_back(t.add_node());
    t.add_duplex(hosts.back(), sw, mib_per_sec(11.9), microseconds(150), 0.2);
  }
  for (int i = 0; i < 6; ++i) {  // idle: never on any flow's path
    t.add_duplex(t.add_node(), sw, mib_per_sec(11.9), microseconds(150));
  }
  t.add_duplex(sw, gw, mib_per_sec(100.0), microseconds(50));
  const LinkId uplink = t.add_link(gw, cloud, mib_per_sec(1.5), milliseconds(20), 0.1, 0.45);
  t.add_link(cloud, gw, mib_per_sec(6.0), milliseconds(20), 0.1, 0.3);
  const LinkId lan0 = t.route(hosts[0], sw).at(0);

  Simulation sim{2011};
  Network net{sim, std::move(t)};

  TcpProfile slow;
  slow.rtt = milliseconds(40);
  slow.window_cap = 160000;
  slow.slow_start_bytes = 1_MB;
  slow.slow_start_fraction = 0.45;
  slow.handshake = milliseconds(25);
  TcpProfile policed = slow;
  policed.window_cap = 400000;
  policed.slow_start_bytes = 512_KB;
  policed.slow_start_fraction = 0.5;
  policed.policing_burst = 3_MB;
  policed.policed_fraction = 0.5;

  PinnedRun out;
  out.done_ns.assign(14, -1);
  // Ops 0-9: a LAN copy, and on its completion an upload of the same
  // object, alternating profiles (the completion starts the next transfer).
  const auto chain = [](Simulation& s, Network& n, NetNodeId a, NetNodeId b, NetNodeId c,
                        Bytes size, Duration start, TcpProfile wan, std::int64_t& lan_done,
                        std::int64_t& wan_done) -> Task<> {
    co_await s.delay(start);
    co_await n.transfer(a, b, size);
    lan_done = s.now().count();
    co_await n.transfer(b, c, size, wan);
    wan_done = s.now().count();
  };
  for (std::size_t i = 0; i < 5; ++i) {
    sim.spawn(chain(sim, net, hosts[i], hosts[(i + 1) % 5], cloud,
                    1_MB + static_cast<Bytes>(i) * 700_KB, milliseconds(90) * static_cast<int>(i),
                    i % 2 == 0 ? slow : policed, out.done_ns[2 * i], out.done_ns[2 * i + 1]));
  }
  // Ops 10-11: striped upload and download that overlap the chains.
  const auto striped = [](Simulation& s, Network& n, NetNodeId a, NetNodeId b, Bytes size,
                          int streams, Duration start, TcpProfile p,
                          std::int64_t& done) -> Task<> {
    co_await s.delay(start);
    co_await n.transfer_striped(a, b, size, p, streams);
    done = s.now().count();
  };
  sim.spawn(striped(sim, net, hosts[1], cloud, 6_MB, 3, milliseconds(200), policed,
                    out.done_ns[10]));
  sim.spawn(striped(sim, net, cloud, hosts[3], 5_MB, 2, milliseconds(350), slow,
                    out.done_ns[11]));
  // Ops 12-13: LAN transfers out of and into the host whose link is
  // throttled below.
  sim.spawn(striped(sim, net, hosts[0], hosts[2], 8_MB, 1, milliseconds(1100), {},
                    out.done_ns[12]));
  sim.spawn(striped(sim, net, hosts[4], hosts[0], 3_MB, 1, milliseconds(1300), {},
                    out.done_ns[13]));
  // Capacity changes while flows are in flight.
  const auto set_cap = [](Simulation& s, Network& n, LinkId l, Rate cap,
                          Duration at) -> Task<> {
    co_await s.delay(at);
    n.set_link_capacity(l, cap);
  };
  sim.spawn(set_cap(sim, net, uplink, mib_per_sec(0.5), milliseconds(1500)));
  sim.spawn(set_cap(sim, net, lan0, mib_per_sec(2.0), milliseconds(1700)));
  sim.spawn(set_cap(sim, net, uplink, mib_per_sec(2.0), milliseconds(4000)));
  sim.spawn(set_cap(sim, net, lan0, mib_per_sec(11.9), milliseconds(4500)));
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  out.events = sim.events_executed();
  return out;
}

TEST(NetworkPinned, GlobalModelCompletionTimesAreUnchanged) {
  const PinnedRun run = run_pinned_program();
  const std::vector<std::int64_t> want{
      84577939,   5898664088, 239713000,  8684018070, 381917742,
      10225744943, 528936703,  10945856914, 676082582, 11545636943,
      9589653837, 1316214506, 2192176371, 1555997009};
  EXPECT_EQ(run.done_ns, want);
  EXPECT_EQ(run.events, 94u);
}

TEST(NetworkTimer, GlobalModelArmsOneTimerForAllFlows) {
  // 50 flows of distinct sizes share one link and finish one at a time.
  // Once they are admitted, the queue holds the network's one timer plus,
  // right after a completion, the finished transfer's resumption — never
  // one event per flow in flight.
  Simulation sim;
  auto hp = make_lan(10.0 * 1000 * 1000);
  Network net{sim, std::move(hp.topo)};
  net.set_hop_processing(Duration::zero());
  std::vector<Duration> took(50);
  for (std::size_t i = 0; i < took.size(); ++i) {
    sim.spawn(timed_transfer(net, sim, hp.a, hp.b, 100000 * static_cast<Bytes>(i + 1), took[i]));
  }
  // Every handshake lands at the same instant. The step after the last
  // admission prunes the timers that each admission superseded.
  while (net.active_flows() < took.size()) ASSERT_TRUE(sim.step());
  ASSERT_TRUE(sim.step());
  std::size_t checked = 0;
  while (net.active_flows() > 0) {
    const auto& st = net.stats();
    const std::size_t resuming = st.flows_started - st.flows_completed - net.active_flows();
    EXPECT_LE(sim.event_queue_size(), 1u + resuming)
        << "with " << net.active_flows() << " flows in flight";
    ++checked;
    ASSERT_TRUE(sim.step());
  }
  sim.run();
  EXPECT_GE(checked, took.size() - 1);
  EXPECT_EQ(net.stats().flows_completed, took.size());
}

}  // namespace
}  // namespace c4h::net

// --- Striped transfers (future-work extension) ------------------------------

namespace c4h::net {
namespace {

using sim::Simulation;
using sim::Task;

TEST(StripedTransfer, BeatsSingleStreamWhenWindowLimited) {
  // Per-flow cap 1 MB/s (window/rtt), link 4 MB/s: 4 stripes ≈ 4x.
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 4.0 * 1000 * 1000, milliseconds(1));
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;  // 1 MB/s per flow

  Duration single{}, striped{};
  sim.run_task([](Simulation& s, Network& n, NetNodeId src, NetNodeId dst, Duration& t1,
                  Duration& t4, TcpProfile prof) -> Task<> {
    auto t0 = s.now();
    co_await n.transfer(src, dst, 8 * 1000 * 1000, prof);
    t1 = s.now() - t0;
    t0 = s.now();
    co_await n.transfer_striped(src, dst, 8 * 1000 * 1000, prof, 4);
    t4 = s.now() - t0;
  }(sim, net, a, b, single, striped, p));

  EXPECT_NEAR(to_seconds(single), 8.0, 0.1);
  EXPECT_NEAR(to_seconds(striped), 2.0, 0.1);
}

TEST(StripedTransfer, GainsCapAtTheLinkRate) {
  // Link 2 MB/s; even 8 stripes cannot beat size/link.
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, 2.0 * 1000 * 1000, milliseconds(1));
  Network net{sim, std::move(t)};
  net.set_hop_processing(Duration::zero());

  TcpProfile p;
  p.rtt = milliseconds(100);
  p.window_cap = 100000;

  Duration took{};
  sim.run_task([](Simulation& s, Network& n, NetNodeId src, NetNodeId dst, Duration& out,
                  TcpProfile prof) -> Task<> {
    const auto t0 = s.now();
    co_await n.transfer_striped(src, dst, 8 * 1000 * 1000, prof, 8);
    out = s.now() - t0;
  }(sim, net, a, b, took, p));
  EXPECT_GE(to_seconds(took), 4.0 - 0.05);  // bounded by the 2 MB/s link
}

TEST(StripedTransfer, SingleStreamAndZeroBytesDegradeGracefully) {
  Simulation sim;
  Topology t;
  const auto a = t.add_node();
  const auto b = t.add_node();
  t.add_duplex(a, b, mbps(100), milliseconds(1));
  Network net{sim, std::move(t)};

  bool done = false;
  sim.run_task([](Network& n, NetNodeId src, NetNodeId dst, bool& d) -> Task<> {
    co_await n.transfer_striped(src, dst, 1_MB, {}, 1);
    co_await n.transfer_striped(src, dst, 0, {}, 4);
    co_await n.transfer_striped(src, dst, 3, {}, 4);  // size < streams
    d = true;
  }(net, a, b, done));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace c4h::net
