// The benchmark's workloads. Each one builds a deployment, generates a
// seeded schedule with workload::generate, preloads the catalog, and
// replays the schedule through the public VStoreNode / GeoFederation APIs,
// recording every op's outcome and simulated latency itself. The driver
// (driver.cpp) times the phases on the host and turns the records into
// metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulation.hpp"
#include "src/workload/tenant.hpp"

namespace c4h::perfbench {

/// One completed op. Latency runs from the op's scheduled issue time to its
/// completion (the simulated generator is never late, so the two starts
/// coincide; the closed-loop dashboard's ops are due when issued).
struct OpSample {
  workload::OpKind kind = workload::OpKind::fetch;
  Errc err = Errc::ok;
  bool correct = false;  // ok with the catalog size, or an expected ACL denial
  bool wrong_size = false;
  std::uint32_t object = 0;
  std::int64_t latency_ns = 0;
};

/// Sum and count of one phase of the ops' outcome breakdowns.
struct Phase {
  std::int64_t sum_ns = 0;
  std::uint64_t n = 0;

  void add(Duration d) {
    sum_ns += d.count();
    ++n;
  }
  double mean_ms() const {
    return n == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(n) * 1e-6;
  }
};

struct Phases {
  Phase transfer;   // fetch: other-node / wide-area / cloud data movement
  Phase xensocket;  // store / fetch: guest <-> dom0 channel
  Phase decision;   // store / process: placement choice
  Phase placement;  // store: disk write / LAN transfer / S3 put
  Phase move;       // process: argument movement to the execution site
  Phase exec;       // process: service execution
  Phase ret;        // process: result return
};

/// Deployment state sampled at every op's issue and completion. Reading it
/// schedules nothing.
struct StateSamples {
  std::uint64_t n = 0;
  double flows_sum = 0.0;
  std::size_t flows_peak = 0;
  std::size_t queue_peak = 0;
};

/// Layer counters read from public stats structs and registries.
using Counters = std::map<std::string, double>;

/// Everything a replay records, kept after its deployment is gone.
struct Record {
  std::vector<OpSample> ops;  // completion order
  Phases phases;
  StateSamples state;
  std::map<std::string, std::uint64_t> errors;  // failed ops by error code
  std::vector<double> wide_area_ms;             // city: wide-area fetch latencies
  TimePoint last_arrival{};                     // last scheduled issue
  TimePoint last_completion{};
  double latency_limit_ms = 0.0;                // of sim_slo_ratio
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Set-up, in order; the driver times each on the host.
  virtual void build() = 0;     // deployment + bootstrap()
  virtual void generate() = 0;  // seeded schedule
  virtual void preload() = 0;   // catalog stores (+ publishes)

  /// The measured phase: replays the schedule until every op completed.
  virtual void replay() = 0;

  /// Untimed, after replay: fetches every acknowledged store back and
  /// checks its catalog size. Returns false (with a reason) on a miss.
  virtual bool read_back(std::string& why) = 0;

  virtual void set_tracing(bool on) = 0;
  virtual std::vector<const obs::Tracer*> tracers() = 0;
  virtual Counters counters() = 0;
  virtual sim::Simulation& sim() = 0;

  Record rec;
};

/// One round of the named workload: a fixed schedule for `seed`. nullptr
/// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace c4h::perfbench
