#include "perfbench/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "src/federation/geo_federation.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/sync.hpp"
#include "src/vstore/acl.hpp"
#include "src/vstore/home_cloud.hpp"
#include "src/workload/popularity.hpp"
#include "src/workload/workload.hpp"

namespace c4h::perfbench {
namespace {

using sim::Task;
using workload::OpKind;

// Latency limits of sim_slo_ratio (ms): about twice the unloaded p99 of
// each workload's slowest home-side op kind (perfbench/NOTES.md).
constexpr double kCrowdLimitMs = 2000.0;
constexpr double kIotLimitMs = 1500.0;
constexpr double kCityLimitMs = 5000.0;

/// An op failed with permission_denied; was that the right answer?
bool expected_denial(const workload::TenantSpec& issuer, const workload::TenantSpec& owner,
                     const workload::ObjectSpec& obj, OpKind kind) {
  const vstore::Right right =
      kind == OpKind::store ? vstore::Right::write
      : kind == OpKind::fetch ? vstore::Right::read
                              : vstore::Right::execute;
  return !vstore::check_access(owner.principal.user, owner.acl, obj.is_private,
                               issuer.principal, right)
              .allowed;
}

vstore::ObjectMeta catalog_meta(const workload::ObjectSpec& o, const workload::TenantSpec& owner) {
  vstore::ObjectMeta meta;
  meta.name = o.name;
  meta.type = o.type;
  meta.size = o.size;
  if (o.is_private) meta.tags.push_back("private");
  meta.owner = owner.principal.user;
  meta.acl = owner.acl;
  return meta;
}

services::ServiceProfile aggregate_profile() {
  services::ServiceProfile p;
  p.name = "aggregate";
  p.id = 21;
  p.fixed_gigacycles = 0.02;
  p.gigacycles_per_mib = 0.5;
  p.output_ratio = 0.05;
  p.working_set_base = 8_MB;
  return p;
}

void add_net_counters(const net::NetworkStats& ns, Counters& c) {
  c["net.flows"] = static_cast<double>(ns.flows_started);
  c["net.msgs"] = static_cast<double>(ns.messages_sent);
  c["net.retransmits"] = static_cast<double>(ns.retransmits);
  c["net.flow_bytes"] = ns.bytes_delivered;
}

/// The replay machinery both deployments share: the open-loop generator,
/// and the recording every op goes through (state samples at issue and
/// completion, then finish()).
class Recording : public Workload {
 protected:
  /// Runs one op, scheduled or closed-loop, due at `due`.
  virtual Task<> execute(workload::ScheduledOp op, TimePoint due) = 0;
  virtual net::Network& network() = 0;

  void start_replay() {
    start_ = sim().now();
    rec.last_arrival = start_;
    rec.last_completion = start_;
    done_ = std::make_unique<sim::Event>(sim());
  }

  /// Issues every scheduled op at its time, without waiting for earlier
  /// ones, then waits until all have completed.
  Task<> open_loop() {
    auto& s = sim();
    for (const workload::ScheduledOp& op : sched_.ops) {
      const TimePoint at = start_ + op.at;
      if (at > s.now()) co_await s.delay(at - s.now());
      ++pending_;
      rec.last_arrival = s.now();
      s.spawn(tracked(op, at));
    }
    draining_ = true;
    if (pending_ > 0) co_await done_->wait();
  }

  void sample_state() {
    const std::size_t flows = network().active_flows();
    ++rec.state.n;
    rec.state.flows_sum += static_cast<double>(flows);
    rec.state.flows_peak = std::max(rec.state.flows_peak, flows);
    rec.state.queue_peak = std::max(rec.state.queue_peak, sim().event_queue_size());
  }

  /// Classifies an outcome and stores the sample.
  void finish(const workload::WorkloadSpec& spec, const workload::ScheduledOp& op, Errc err,
              bool wrong_size, TimePoint due) {
    const workload::ObjectSpec& obj = sched_.objects[op.object];
    OpSample s;
    s.kind = op.kind;
    s.err = err;
    s.object = op.object;
    s.wrong_size = wrong_size;
    s.latency_ns = (sim().now() - due).count();
    if (err == Errc::ok) {
      s.correct = !wrong_size;
    } else if (err == Errc::permission_denied) {
      s.correct = expected_denial(spec.tenants[op.tenant], spec.tenants[obj.tenant], obj, op.kind);
    }
    if (err != Errc::ok && !s.correct) ++rec.errors[to_string(err)];
    if (wrong_size) ++rec.errors["wrong_size"];
    rec.ops.push_back(s);
    rec.last_completion = std::max(rec.last_completion, sim().now());
  }

  workload::Schedule sched_;
  TimePoint start_{};

 private:
  Task<> tracked(workload::ScheduledOp op, TimePoint due) {
    co_await execute(op, due);
    if (--pending_ == 0 && draining_) done_->fire();
  }

  std::size_t pending_ = 0;
  bool draining_ = false;
  std::unique_ptr<sim::Event> done_;
};

// --- A single home ----------------------------------------------------------

struct HomeShape {
  workload::WorkloadSpec spec;
  bool monitors = false;
  double limit_ms = 0.0;
  bool cloud_service = false;  // tenant services also deployed on EC2
  bool brownout = false;       // one WAN brown-out over the middle fifth
};

class HomeWorkload final : public Recording {
 public:
  explicit HomeWorkload(HomeShape shape) : shape_(std::move(shape)) {
    rec.latency_limit_ms = shape_.limit_ms;
  }

  void build() override {
    vstore::HomeCloudConfig cfg;
    cfg.netbooks = 5;
    cfg.with_desktop = true;
    cfg.seed = shape_.spec.seed;
    cfg.start_monitors = shape_.monitors;
    hc_ = std::make_unique<vstore::HomeCloud>(cfg);
    hc_->bootstrap();
    const std::size_t tenants = shape_.spec.tenants.size();
    tenant_nodes_.assign(tenants, {});
    rr_.assign(tenants, 0);
    // Node i serves tenant i mod T; its application VM is that tenant.
    for (std::size_t i = 0; i < hc_->node_count(); ++i) {
      const std::size_t t = i % tenants;
      tenant_nodes_[t].push_back(i);
      hc_->node(i).set_principal(shape_.spec.tenants[t].principal);
    }
    for (std::size_t t = 0; t < tenants; ++t) {
      const auto& svc = shape_.spec.tenants[t].service;
      if (!svc.has_value()) continue;
      hc_->registry().add_profile(*svc);
      if (shape_.cloud_service) hc_->deploy_service_in_cloud(*svc);
      for (const std::size_t i : tenant_nodes_[t]) hc_->node(i).deploy_service(*svc);
    }
    hc_->run([](HomeWorkload& w) -> Task<> {
      for (std::size_t t = 0; t < w.tenant_nodes_.size(); ++t) {
        if (!w.shape_.spec.tenants[t].service.has_value()) continue;
        for (const std::size_t i : w.tenant_nodes_[t]) {
          auto published = co_await w.hc_->node(i).publish_services();
          (void)published;
        }
      }
      co_return;
    }(*this));
  }

  void generate() override {
    sched_ = workload::generate(shape_.spec);
    fetchable_ = workload::fetchable_sets(shape_.spec, sched_.objects);
  }

  void preload() override {
    hc_->run([](HomeWorkload& w) -> Task<> {
      for (std::uint32_t i = 0; i < w.sched_.objects.size(); ++i) {
        const workload::ObjectSpec& o = w.sched_.objects[i];
        const workload::TenantSpec& ts = w.shape_.spec.tenants[o.tenant];
        vstore::VStoreNode& n = *w.pick_node(o.tenant);
        auto created = co_await n.create_object(catalog_meta(o, ts));
        if (!created.ok()) continue;
        vstore::StoreOptions opts;
        opts.policy = ts.store_policy;
        opts.decision = ts.decision;
        auto stored = co_await n.store_object(o.name, opts);
        if (stored.ok()) w.acked_[i] = o.tenant;
      }
    }(*this));
  }

  void replay() override {
    hc_->run(replay_task());
  }

  bool read_back(std::string& why) override {
    bool ok = true;
    hc_->run([](HomeWorkload& w, bool& good, std::string& reason) -> Task<> {
      for (const auto& [object, tenant] : w.acked_) {
        const workload::ObjectSpec& o = w.sched_.objects[object];
        vstore::VStoreNode& n = *w.pick_node(tenant);
        auto fetched = co_await n.fetch_object(o.name);
        if (!fetched.ok() || fetched->size != o.size) {
          good = false;
          reason = "acknowledged store " + o.name + " did not read back: " +
                   (fetched.ok() ? "size " + std::to_string(fetched->size)
                                 : std::string(to_string(fetched.code())));
          co_return;
        }
      }
    }(*this, ok, why));
    return ok;
  }

  void set_tracing(bool on) override { hc_->tracer().set_enabled(on); }
  std::vector<const obs::Tracer*> tracers() override { return {&hc_->tracer()}; }
  sim::Simulation& sim() override { return hc_->sim(); }

  Counters counters() override {
    Counters c;
    add_home_counters(*hc_, c);
    add_net_counters(hc_->network().stats(), c);
    return c;
  }

  static void add_home_counters(vstore::HomeCloud& hc, Counters& c) {
    const overlay::OverlayStats& os = hc.overlay().stats();
    c["overlay.routes"] += static_cast<double>(os.routes);
    c["overlay.route_hops"] += static_cast<double>(os.route_hops);
    const kv::KvStats& ks = hc.kv().stats();
    c["kv.gets"] += static_cast<double>(ks.gets);
    c["kv.puts"] += static_cast<double>(ks.puts);
    c["kv.local_hits"] += static_cast<double>(ks.local_hits);
    c["kv.cache_hits"] += static_cast<double>(ks.cache_hits);
    c["kv.retries"] += static_cast<double>(ks.op_retries);
    const obs::Snapshot snap = hc.metrics().snapshot();
    for (const char* h : {"get", "put"}) {
      const auto it = snap.histograms.find(std::string("c4h.kv.") + h + ".latency_ns");
      if (it == snap.histograms.end()) continue;
      c[std::string("kv.") + h + "_ns_sum"] += static_cast<double>(it->second.sum());
      c[std::string("kv.") + h + "_ns_n"] += static_cast<double>(it->second.count());
    }
    for (const char* k : {"decision", "switch", "explore", "store_veto"}) {
      const auto it = snap.counters.find(std::string("c4h.placement.") + k + ".count");
      if (it != snap.counters.end()) c[std::string("placement.") + k] += static_cast<double>(it->second);
    }
    const auto regret = snap.counters.find("c4h.placement.regret.us");
    if (regret != snap.counters.end()) c["placement.regret_us"] += static_cast<double>(regret->second);
    for (std::size_t i = 0; i < hc.node_count(); ++i) {
      vstore::VStoreNode& n = hc.node(i);
      c["mon.updates"] += static_cast<double>(n.monitor().updates_published());
      c["vstore.fetch_retries"] += static_cast<double>(n.stats().fetch_retries);
      c["vstore.store_reroutes"] += static_cast<double>(n.stats().store_reroutes);
      c["vstore.op_failures"] += static_cast<double>(n.stats().op_failures);
    }
  }

 private:
  vstore::VStoreNode* pick_node(std::uint32_t tenant) {
    const auto& nodes = tenant_nodes_[tenant];
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const std::size_t i = nodes[(rr_[tenant] + k) % nodes.size()];
      if (hc_->node(i).online()) {
        rr_[tenant] = (rr_[tenant] + k + 1) % nodes.size();
        return &hc_->node(i);
      }
    }
    return &hc_->node(nodes[0]);
  }

  net::Network& network() override { return hc_->network(); }

  Task<> execute(workload::ScheduledOp op, TimePoint due) override {
    sample_state();
    const workload::ObjectSpec& obj = sched_.objects[op.object];
    const workload::TenantSpec& issuer = shape_.spec.tenants[op.tenant];
    const workload::TenantSpec& owner = shape_.spec.tenants[obj.tenant];
    vstore::VStoreNode& n = *pick_node(op.tenant);
    Errc err = Errc::ok;
    bool wrong = false;
    switch (op.kind) {
      case OpKind::store: {
        // Re-stores keep the catalog identity, so sizes stay ground truth.
        auto created = co_await n.create_object(catalog_meta(obj, owner));
        if (!created.ok() && created.code() != Errc::already_exists) {
          err = created.code();
          break;
        }
        vstore::StoreOptions opts;
        opts.policy = issuer.store_policy;
        opts.decision = issuer.decision;
        auto stored = co_await n.store_object(obj.name, opts);
        if (!stored.ok()) {
          err = stored.code();
          break;
        }
        acked_[op.object] = obj.tenant;
        rec.phases.xensocket.add(stored->inter_domain);
        rec.phases.decision.add(stored->decision);
        rec.phases.placement.add(stored->placement);
        break;
      }
      case OpKind::fetch: {
        auto fetched = co_await n.fetch_object(obj.name);
        if (!fetched.ok()) {
          err = fetched.code();
          break;
        }
        wrong = fetched->size != obj.size;
        rec.phases.transfer.add(fetched->inter_node);
        rec.phases.xensocket.add(fetched->inter_domain);
        break;
      }
      case OpKind::process:
      case OpKind::fetch_process: {
        Result<vstore::ProcessOutcome> processed{Errc::invalid_argument};
        if (op.kind == OpKind::process) {
          processed = co_await n.process(obj.name, *issuer.service, issuer.decision);
        } else {
          processed = co_await n.fetch_process(obj.name, *issuer.service, issuer.decision);
        }
        if (!processed.ok()) {
          err = processed.code();
          break;
        }
        rec.phases.decision.add(processed->decision);
        rec.phases.move.add(processed->move);
        rec.phases.exec.add(processed->exec);
        rec.phases.ret.add(processed->result_return);
        break;
      }
    }
    finish(shape_.spec, op, err, wrong, due);
    sample_state();
  }

  /// A dashboard client: fetch / process / fetch_process, then think.
  Task<> closed_client(std::uint32_t tenant, std::uint64_t seed) {
    const workload::TenantSpec& ts = shape_.spec.tenants[tenant];
    Rng rng{seed};
    const workload::ZipfTable zipf{std::max<std::size_t>(fetchable_[tenant].size(), 1), ts.zipf_s};
    auto& sim = hc_->sim();
    const TimePoint end = start_ + shape_.spec.duration;
    while (sim.now() < end) {
      workload::ScheduledOp op;
      op.at = sim.now() - start_;
      op.tenant = tenant;
      op.kind = ts.mix.sample(rng);
      op.object = fetchable_[tenant][zipf.sample(rng)];
      rec.last_arrival = std::max(rec.last_arrival, sim.now());
      co_await execute(op, sim.now());
      co_await sim.delay(from_seconds(rng.exponential(to_seconds(ts.closed.mean_think))));
    }
  }

  /// One WAN brown-out over the middle fifth of the run.
  Task<> brownout() {
    auto& sim = hc_->sim();
    const Duration d = shape_.spec.duration;
    co_await sim.delay(d * 2 / 5);
    hc_->set_wan_rates(mib_per_sec(0.3), mib_per_sec(0.45));
    co_await sim.delay(d / 5);
    hc_->set_wan_rates(hc_->config().wan_up, hc_->config().wan_down);
  }

  Task<> replay_task() {
    start_replay();
    std::vector<Task<>> tasks;
    tasks.push_back(open_loop());
    Rng seeder{shape_.spec.seed ^ 0xDA5B0A4Dull};
    for (std::uint32_t t = 0; t < shape_.spec.tenants.size(); ++t) {
      for (int c = 0; c < shape_.spec.tenants[t].closed.clients; ++c) {
        tasks.push_back(closed_client(t, seeder.next()));
      }
    }
    if (shape_.brownout) tasks.push_back(brownout());
    co_await sim::when_all(hc_->sim(), std::move(tasks));
  }

  HomeShape shape_;
  std::unique_ptr<vstore::HomeCloud> hc_;
  std::vector<std::vector<std::uint32_t>> fetchable_;
  std::vector<std::vector<std::size_t>> tenant_nodes_;
  std::vector<std::size_t> rr_;
  std::map<std::uint32_t, std::uint32_t> acked_;  // object → owner tenant
};

// --- The city ---------------------------------------------------------------

constexpr int kHoods = 16;
constexpr int kHomesPerHood = 2;
constexpr int kNodesPerHome = 6;


class CityWorkload final : public Recording {
 public:
  CityWorkload(workload::WorkloadSpec spec, double limit_ms) : spec_(std::move(spec)) {
    rec.latency_limit_ms = limit_ms;
  }

  void build() override {
    city_ = std::make_unique<vstore::City>(vstore::CityConfig{.seed = spec_.seed, .spines = 2});
    for (int h = 0; h < kHoods; ++h) {
      vstore::NeighborhoodConfig nc;
      nc.seed = spec_.seed;
      nc.name = "hood-" + std::to_string(h);
      // Each neighborhood sits farther from the metro core.
      nc.spine_latency = milliseconds(1 + 3 * h);
      hoods_.push_back(std::make_unique<vstore::Neighborhood>(*city_, nc));
      for (int i = 0; i < kHomesPerHood; ++i) {
        vstore::HomeCloudConfig hc;
        hc.netbooks = kNodesPerHome - 1;
        hc.with_desktop = true;
        hc.seed = spec_.seed + static_cast<std::uint64_t>(h * kHomesPerHood + i);
        hc.home_name = "h" + std::to_string(h) + "-" + std::to_string(i);
        hc.kv.replication = 2;
        hc.start_monitors = false;
        homes_.push_back(std::make_unique<vstore::HomeCloud>(*hoods_.back(), hc));
      }
    }
    for (auto& hc : homes_) hc->bootstrap();
    fed_ = std::make_unique<federation::GeoFederation>(*city_, federation::GeoConfig{.replication = 2});
    order_ = city_->all_homes();
    rr_.assign(spec_.tenants.size(), 0);
  }

  void generate() override { sched_ = workload::generate(spec_); }

  void preload() override {
    city_->run([](CityWorkload& w) -> Task<> {
      for (std::uint32_t i = 0; i < w.sched_.objects.size(); ++i) {
        const workload::ObjectSpec& o = w.sched_.objects[i];
        const workload::TenantSpec& ts = w.spec_.tenants[o.tenant];
        vstore::HomeCloud& home = w.home_of(o.tenant);
        vstore::VStoreNode& n = *w.pick_node(o.tenant);
        n.set_principal(ts.principal);
        auto created = co_await n.create_object(catalog_meta(o, ts));
        if (!created.ok()) continue;
        auto stored = co_await n.store_object(o.name);
        if (!stored.ok()) continue;
        auto pub = co_await w.fed_->publish(home, n, o.name);
        if (pub.ok()) w.published_[i] = o.tenant;
      }
    }(*this));
  }

  void replay() override { city_->run(replay_task()); }

  bool read_back(std::string& why) override {
    bool ok = true;
    city_->run([](CityWorkload& w, bool& good, std::string& reason) -> Task<> {
      for (const auto& [object, tenant] : w.published_) {
        const workload::ObjectSpec& o = w.sched_.objects[object];
        vstore::VStoreNode& n = *w.pick_node(tenant);
        auto fetched = co_await w.fed_->fetch(w.home_of(tenant), n, o.name);
        if (!fetched.ok() || fetched->size != o.size) {
          good = false;
          reason = "published object " + o.name + " did not read back: " +
                   (fetched.ok() ? "size " + std::to_string(fetched->size)
                                 : std::string(to_string(fetched.code())));
          co_return;
        }
      }
    }(*this, ok, why));
    return ok;
  }

  void set_tracing(bool on) override {
    for (auto& h : homes_) h->tracer().set_enabled(on);
  }
  std::vector<const obs::Tracer*> tracers() override {
    std::vector<const obs::Tracer*> out;
    for (auto& h : homes_) out.push_back(&h->tracer());
    return out;
  }
  sim::Simulation& sim() override { return city_->sim(); }

  Counters counters() override {
    Counters c;
    for (auto& h : homes_) HomeWorkload::add_home_counters(*h, c);
    add_net_counters(city_->network().stats(), c);
    const federation::GeoStats& gs = fed_->stats();
    for (std::size_t p = 0; p < federation::kFetchPaths; ++p) {
      c[std::string("fed.fetch.") + federation::to_string(static_cast<federation::FetchPath>(p))] =
          static_cast<double>(gs.fetches[p]);
    }
    c["fed.directory_queries"] = static_cast<double>(gs.directory_queries);
    c["fed.replicas_placed"] = static_cast<double>(gs.replicas_placed);
    c["fed.repairs"] = static_cast<double>(gs.repairs);
    c["fed.repair_failures"] = static_cast<double>(gs.repair_failures);
    return c;
  }

 private:
  vstore::HomeCloud& home_of(std::uint32_t tenant) { return *order_[tenant % order_.size()]; }

  vstore::VStoreNode* pick_node(std::uint32_t tenant) {
    vstore::HomeCloud& home = home_of(tenant);
    for (std::size_t k = 0; k < home.node_count(); ++k) {
      const std::size_t i = (rr_[tenant] + k) % home.node_count();
      if (home.node(i).online()) {
        rr_[tenant] = (i + 1) % home.node_count();
        return &home.node(i);
      }
    }
    return &home.node(0);
  }

  net::Network& network() override { return city_->network(); }

  Task<> execute(workload::ScheduledOp op, TimePoint due) override {
    sample_state();
    const workload::ObjectSpec& obj = sched_.objects[op.object];
    const workload::TenantSpec& issuer = spec_.tenants[op.tenant];
    const workload::TenantSpec& owner = spec_.tenants[obj.tenant];
    vstore::HomeCloud& home = home_of(op.tenant);
    vstore::VStoreNode& n = *pick_node(op.tenant);
    n.set_principal(issuer.principal);
    Errc err = Errc::ok;
    bool wrong = false;
    if (op.kind == OpKind::store) {
      // Re-store: the owner home overwrites and republishes; another
      // tenant's store lands in its own home and is refused republication.
      auto created = co_await n.create_object(catalog_meta(obj, owner));
      if (!created.ok() && created.code() != Errc::already_exists) {
        err = created.code();
      } else {
        auto stored = co_await n.store_object(obj.name);
        if (!stored.ok()) {
          err = stored.code();
        } else {
          rec.phases.xensocket.add(stored->inter_domain);
          rec.phases.decision.add(stored->decision);
          rec.phases.placement.add(stored->placement);
          auto pub = co_await fed_->publish(home, n, obj.name);
          if (pub.ok()) {
            published_[op.object] = obj.tenant;
          } else if (pub.code() != Errc::permission_denied) {
            err = pub.code();
          }
        }
      }
    } else {
      auto fetched = co_await fed_->fetch(home, n, obj.name);
      if (!fetched.ok()) {
        err = fetched.code();
      } else {
        wrong = fetched->size != obj.size;
        rec.phases.transfer.add(fetched->transfer);
        if (fetched->path == federation::FetchPath::wide_area) {
          rec.wide_area_ms.push_back(static_cast<double>((city_->sim().now() - due).count()) * 1e-6);
        }
      }
    }
    finish(spec_, op, err, wrong, due);
    sample_state();
  }

  /// Repair sweeps every 5 s of the schedule, then one after the drain.
  Task<> repairs() {
    auto& sim = city_->sim();
    const int sweeps = static_cast<int>(spec_.duration / seconds(5));
    for (int i = 0; i < sweeps; ++i) {
      co_await sim.delay(seconds(5));
      const std::size_t healed = co_await fed_->repair_scan();
      (void)healed;
    }
  }

  Task<> replay_task() {
    start_replay();
    // Mild churn: crash/restart only, no message faults, no uplink flaps;
    // injection stops at 60% of the schedule so every node is back for the
    // read-back.
    sim::FaultSpec fault;
    fault.mean_crash_interval = seconds(8);
    fault.mean_downtime = seconds(4);
    fault.mean_flap_interval = seconds(86400);
    fault.horizon = spec_.duration * 6 / 10;
    city_->enable_chaos(fault);
    std::vector<Task<>> tasks;
    tasks.push_back(open_loop());
    tasks.push_back(repairs());
    co_await sim::when_all(city_->sim(), std::move(tasks));
    const std::size_t healed = co_await fed_->repair_scan();
    (void)healed;
  }

  workload::WorkloadSpec spec_;
  std::unique_ptr<vstore::City> city_;
  std::vector<std::unique_ptr<vstore::Neighborhood>> hoods_;
  std::vector<std::unique_ptr<vstore::HomeCloud>> homes_;
  std::unique_ptr<federation::GeoFederation> fed_;
  std::vector<vstore::HomeCloud*> order_;
  std::vector<std::size_t> rr_;
  std::map<std::uint32_t, std::uint32_t> published_;  // object → owner tenant
};

// --- Workload definitions ---------------------------------------------------
//
// Each workload is one fixed, seeded schedule (a "round"), sized so that its
// set-up plus replay takes about a quarter of a second on a 4-core x86
// host; driver.cpp runs several rounds, so the amount of simulated work in
// a run is a pure function of (workload, seed, requested seconds). Latency
// limits come from the unloaded latency of each workload's slowest ops;
// perfbench/NOTES.md gives the derivation.

std::unique_ptr<Workload> home_crowd(std::uint64_t seed) {
  HomeShape shape;
  shape.limit_ms = kCrowdLimitMs;
  workload::WorkloadSpec& spec = shape.spec;
  spec.seed = seed;
  spec.duration = seconds(40000);
  // One flash crowd over a tenth of the schedule; even then the hottest
  // publisher node's LAN link stays below saturation, so the backlog of
  // the window drains as it forms.
  workload::FlashCrowdSpec f;
  f.start = TimePoint{spec.duration * 2 / 5};
  f.duration = spec.duration / 10;
  f.multiplier = 3.0;
  spec.flash_crowds.push_back(f);

  workload::TenantSpec publisher;
  publisher.name = "publisher";
  publisher.principal = {"publisher", vstore::TrustLevel::trusted};
  publisher.acl.allow("crowd", {vstore::Right::read});
  publisher.mix = {1.0, 0.0, 0.0, 0.0};  // trickles re-stores
  publisher.object_count = 1000;
  publisher.size = {2_MB, 8_MB};
  publisher.arrival.rate_per_sec = 0.05;
  spec.tenants.push_back(publisher);

  workload::TenantSpec crowd;
  crowd.name = "crowd";
  crowd.principal = {"crowd", vstore::TrustLevel::trusted};
  crowd.mix = {0.0, 1.0, 0.0, 0.0};
  crowd.object_count = 0;  // reads only the publisher's catalog
  crowd.fetch_from = {"publisher"};
  crowd.zipf_s = 1.1;
  crowd.arrival.rate_per_sec = 0.5;
  spec.tenants.push_back(crowd);
  return std::make_unique<HomeWorkload>(std::move(shape));
}

std::unique_ptr<Workload> home_iot(std::uint64_t seed) {
  HomeShape shape;
  shape.limit_ms = kIotLimitMs;
  shape.monitors = true;
  shape.cloud_service = true;
  shape.brownout = true;
  workload::WorkloadSpec& spec = shape.spec;
  spec.seed = seed;
  spec.duration = seconds(450);
  spec.diurnal.enabled = true;
  spec.diurnal.period = seconds(30);
  spec.diurnal.amplitude = 0.6;

  workload::TenantSpec sensors;
  sensors.name = "sensors";
  sensors.principal = {"sensors", vstore::TrustLevel::trusted};
  sensors.acl.allow("dashboard", {vstore::Right::read, vstore::Right::execute});
  sensors.object_type = "json";
  sensors.mix = {1.0, 0.0, 0.0, 0.0};  // fan-in
  sensors.object_count = 2000;
  sensors.size = {4_KB, 64_KB};
  sensors.zipf_s = 0.6;  // re-reports overwrite hot readings
  // The largest readings go to S3; the learned engine may veto an upload
  // while the uplink is browned out.
  sensors.store_policy = vstore::StoragePolicy::size_threshold(62_KB);
  sensors.decision = vstore::DecisionPolicy::learned;
  sensors.arrival.rate_per_sec = 30.0;
  spec.tenants.push_back(sensors);

  workload::TenantSpec dashboard;
  dashboard.name = "dashboard";
  dashboard.principal = {"dashboard", vstore::TrustLevel::trusted};
  dashboard.mix = {0.0, 0.6, 0.3, 0.1};
  dashboard.object_count = 4;
  dashboard.size = {16_KB, 64_KB};
  dashboard.fetch_from = {"sensors"};
  dashboard.service = aggregate_profile();
  dashboard.decision = vstore::DecisionPolicy::learned;
  dashboard.closed.clients = 2;
  dashboard.closed.mean_think = milliseconds(400);
  spec.tenants.push_back(dashboard);
  return std::make_unique<HomeWorkload>(std::move(shape));
}

std::unique_ptr<Workload> city_share(std::uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.duration = seconds(750);
  const int tenants = kHoods * kHomesPerHood;
  for (int t = 0; t < tenants; ++t) {
    workload::TenantSpec ts;
    ts.name = "t" + std::to_string(t);
    ts.principal = {ts.name, vstore::TrustLevel::trusted};
    ts.mix = {0.2, 0.8, 0.0, 0.0};  // fetch-heavy; re-stores republish
    ts.object_count = 40;
    ts.size = {64_KB, 512_KB};
    ts.zipf_s = 0.8;
    // Homes interleave across neighborhoods, so the next two tenants live
    // elsewhere: most fetches cross neighborhoods.
    ts.fetch_from = {"t" + std::to_string((t + 1) % tenants),
                     "t" + std::to_string((t + 2) % tenants)};
    ts.arrival.rate_per_sec = 0.3;
    spec.tenants.push_back(ts);
  }
  return std::make_unique<CityWorkload>(std::move(spec), kCityLimitMs);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "home_crowd") return home_crowd(seed);
  if (name == "home_iot") return home_iot(seed);
  if (name == "city_share") return city_share(seed);
  return nullptr;
}

}  // namespace c4h::perfbench
