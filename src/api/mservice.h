// MService — the membership service library API of paper Figure 8:
//
//   class MService {
//     MService(const char *configuration);
//     void control(int cmd, void *arg);
//     int run(void);
//     int register_service(const char *name, const char *partition);
//     int update_value(const char *key, const void *value, int size);
//     int delete_value(const char *key);
//   };
//
// The simulated variant keeps those five operations with the same meaning,
// adding only what the simulation needs instead of the OS: the Simulation,
// Network, host identity, and the DirectoryStore that stands in for shared
// memory. `run()` spins up the hierarchical daemon (the paper's
// Announcer / Receiver / StatusTracker / Informer / Contender threads are
// the daemon's timers and handlers in the event-driven world).
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/config.h"
#include "api/directory_store.h"
#include "api/status.h"
#include "protocols/hier.h"

namespace tamp::api {

// --- control surface --------------------------------------------------------
//
// The paper's `control(int cmd, void *arg)` as typed requests. Parameter
// changes must precede run() and pass validate(), like the constructors'
// configuration. Queries need a running daemon, except TraceControl: the
// tracer lives on the Network. Rejections come back as a Status.

struct SetFrequencyRequest {
  double heartbeats_per_second = 1.0;  // MCAST_FREQ
};
struct SetMaxLossRequest {
  int consecutive_losses = 5;  // MAX_LOSS
};
struct SetMaxTtlRequest {
  int max_ttl = 4;  // formation TTL ceiling
};
// Snapshot the daemon's per-level leadership view (requires run()).
struct LeadershipQuery {};

// Read this node's hierarchical-protocol counters from the registry
// (requires run()). Bounded: an oversized filter or result cap is rejected,
// not truncated silently.
struct MetricsQuery {
  std::string name_filter;     // substring match; empty = all (<= 256 chars)
  size_t max_results = 64;     // in [1, 4096]
};

// Reconfigure the network's structured tracer. Works before or after
// run(). Bounds-checked like MetricsQuery.
struct TraceControl {
  bool enable = true;
  size_t capacity = size_t{1} << 16;           // in [1, kMaxTraceCapacity]
  uint64_t kinds_mask = obs::kAllTraceKinds;   // subset of kAllTraceKinds
};

using ControlRequest =
    std::variant<SetFrequencyRequest, SetMaxLossRequest, SetMaxTtlRequest,
                 LeadershipQuery, MetricsQuery, TraceControl>;

// One level of the hierarchy as the local daemon sees it.
struct LeadershipInfo {
  int level = 0;
  bool joined = false;
  bool is_leader = false;
  membership::NodeId leader = membership::kInvalidNode;
  membership::NodeId backup = membership::kInvalidNode;
  // Highest leadership epoch known for the level (the node's own minted
  // epoch where is_leader).
  membership::Epoch epoch = 0;
};

// One named counter value from a MetricsQuery.
struct MetricValue {
  std::string name;
  uint64_t value = 0;
};

struct ControlResponse {
  Status status;
  // Filled for LeadershipQuery (empty otherwise):
  membership::Incarnation incarnation = 0;  // the node's own incarnation
  std::vector<LeadershipInfo> leadership;   // one entry per level
  // Filled for MetricsQuery (empty otherwise), sorted by name.
  std::vector<MetricValue> metrics;
};

class MService {
 public:
  // Both constructors run validate(). A configuration that fails to parse
  // or validate leaves the defaults in place, like the paper's
  // implementation ("if the configuration file is not available, default
  // values will be used"), and `config_error()` reports why.
  MService(sim::Simulation& sim, net::Network& net, DirectoryStore& store,
           net::HostId self, MembershipConfig config);
  // Figure-7 fidelity path: parses `configuration`.
  MService(sim::Simulation& sim, net::Network& net, DirectoryStore& store,
           net::HostId self, const std::string& configuration);
  ~MService();

  MService(const MService&) = delete;
  MService& operator=(const MService&) = delete;

  // Typed control: parameter requests must precede run() and pass
  // validate(); queries require a running daemon. Never asserts —
  // rejections come back in `status`.
  ControlResponse control(const ControlRequest& request);

  // Start the membership daemon, publish the directory segment, and
  // register the services from the configuration file. Returns 0 on
  // success (paper-style), -1 if already running.
  int run();
  void shutdown();

  // Returns -1, registering nothing, before run() or for a malformed
  // partition spec.
  int register_service(const std::string& name,
                       const std::string& partition_spec);
  int update_value(const std::string& key, const std::string& value);
  int delete_value(const std::string& key);

  bool running() const { return daemon_ != nullptr && daemon_->running(); }
  const std::string& config_error() const { return config_error_; }
  const MembershipConfig& config() const { return config_; }
  int shm_key() const { return config_.system.shm_key; }

  // Escape hatch for tests and composition with the proxy/service layers.
  protocols::HierDaemon& daemon();

 private:
  // Adopts `config` if it passes validate(); otherwise keeps the defaults
  // and records the reason in config_error_.
  void adopt(MembershipConfig config);

  sim::Simulation& sim_;
  net::Network& net_;
  DirectoryStore& store_;
  net::HostId self_;
  MembershipConfig config_;
  std::string config_error_;
  // A successful TraceControl outlives run(): the static configuration's
  // trace settings are only applied when no explicit control preceded them.
  bool trace_overridden_ = false;
  std::unique_ptr<protocols::HierDaemon> daemon_;
};

}  // namespace tamp::api
