// Cross-home object sharing for collaborating Cloud4Home systems (§VII
// future work (v)).
//
// Homes stay autonomous: each keeps its own overlay and metadata store. To
// share, a home *publishes* an object into the neighborhood directory — a
// lightweight index hosted in the shared public cloud (the natural
// rendezvous every home can reach). A remote home's fetch first queries the
// directory (one WAN round trip), then pulls the bytes home-to-home across
// both access links (source home's uplink + requester home's downlink), or
// straight from S3 when the object already lives in the shared cloud.
#pragma once

#include <map>
#include <string>

#include "src/vstore/home_cloud.hpp"

namespace c4h::federation {

struct FederatedFetch {
  Bytes size = 0;
  std::string source_home;
  bool from_shared_cloud = false;  // served straight from S3
  bool local_home = false;         // requester's own home held it
  Duration total{};
  Duration directory_lookup{};
  Duration transfer{};
};

struct FederationStats {
  std::uint64_t published = 0;
  std::uint64_t directory_queries = 0;
  std::uint64_t cross_home_fetches = 0;
  std::uint64_t cloud_served = 0;
  double bytes_exchanged = 0;
};

class Federation {
 public:
  explicit Federation(vstore::Neighborhood& hood) : hood_(hood) {}

  /// Announces a stored object to the neighborhood directory. The entry
  /// carries which home and node own it (or its S3 URL); the announcement
  /// is one small message to the cloud-hosted directory.
  sim::Task<Result<void>> publish(vstore::HomeCloud& home, vstore::VStoreNode& node,
                                  const std::string& object_name);

  /// Retrieves a published object into `node` (any home). Pays the
  /// directory round trip, then either a local-home fetch, an S3 download,
  /// or a home-to-home transfer across both WANs.
  sim::Task<Result<FederatedFetch>> fetch(vstore::HomeCloud& home, vstore::VStoreNode& node,
                                          const std::string& object_name);

  /// Removes an entry (owner withdraws the share).
  sim::Task<Result<void>> withdraw(vstore::HomeCloud& home, vstore::VStoreNode& node,
                                   const std::string& object_name);

  std::size_t directory_size() const { return directory_.size(); }
  const FederationStats& stats() const { return stats_; }

 private:
  struct DirEntry {
    vstore::HomeCloud* home;
    Key owner_node;        // node inside the home (when home-resident)
    std::string s3_url;    // set when the object lives in the shared cloud
    Bytes size = 0;
  };

  /// One round trip to the directory service at the cloud endpoint.
  sim::Task<> directory_round_trip(vstore::VStoreNode& node, Bytes request = 200,
                                   Bytes reply = 200);

  vstore::Neighborhood& hood_;
  // Ordered so directory sweeps (repair/placement in the geo tier share the
  // idiom) stay deterministic under c4h-analyze R3.
  std::map<std::string, DirEntry> directory_;
  FederationStats stats_;
};

}  // namespace c4h::federation
