// Simulated stacks built through the program's public constructors, and
// the layer probes the traced run times on them: MembershipTable lookup,
// the entry codec and the refresh path of apply(), plus per-event gaps
// from Simulation::set_trace_hook.
#pragma once

#include <cstdint>
#include <memory>

#include "measure.h"
#include "net/builders.h"
#include "net/topology.h"
#include "net/transport.h"
#include "protocols/cluster.h"
#include "sim/scenario.h"
#include "sim/simulation.h"
#include "workload/workload.h"

namespace perfbench {

struct StackSpec {
  tamp::protocols::Scheme scheme = tamp::protocols::Scheme::kHierarchical;
  tamp::chaos::ShapeKind shape = tamp::chaos::ShapeKind::kRacked;
  size_t nodes = 12;
  uint64_t seed = 1;
  // Racked shape only: hosts per rack switch. 0 splits the nodes into three
  // racks, the chaos scenario runner's layout.
  int hosts_per_rack = 0;
  // The scenario runner's settings: finite NIC egress, 10 s anti-entropy,
  // topology-epoch polling. Off gives the figure benches' plain settings.
  bool scenario_settings = true;
  bool hier_digest = false;
  size_t heartbeat_pad = 0;
  bool workload = false;  // construct (not start) a WorkloadDriver
};

// One simulated cluster. Members are declared in construction order so
// destruction tears the workload down before the cluster it references.
struct Stack {
  std::unique_ptr<tamp::sim::Simulation> sim;
  std::unique_ptr<tamp::net::Topology> topology;
  tamp::net::ClusterLayout layout;
  std::unique_ptr<tamp::net::Network> network;
  std::unique_ptr<tamp::protocols::Cluster> cluster;
  std::unique_ptr<tamp::workload::WorkloadDriver> workload;
};

std::unique_ptr<Stack> build_stack(const StackSpec& spec);

// Runs `sim` forward in `tick` steps until the cluster is converged or
// `horizon` passes, timing each converged() poll into `converged_ns`.
// Returns whether it converged.
bool run_until_converged(Stack& stack, tamp::sim::Time horizon,
                         tamp::sim::Duration tick,
                         std::vector<double>* converged_ns);

// Installs a trace hook on `sim` that records the host-time gap between
// consecutive events into `gaps` for as long as the returned guard lives.
class EventGapHook {
 public:
  EventGapHook(tamp::sim::Simulation& sim, GapSampler& gaps);
  ~EventGapHook();
  EventGapHook(const EventGapHook&) = delete;
  EventGapHook& operator=(const EventGapHook&) = delete;

 private:
  tamp::sim::Simulation& sim_;
};

// Times MembershipTable::lookup(service, partition), encode_entry,
// decode_entry and the refresh path of apply() over the real rows of
// daemon `index`'s directory, and records rows held and wire bytes per row.
// Results go into `outcome` as membership.* metrics; a probe whose decode
// does not round-trip is reported as an error.
void probe_membership(Stack& stack, size_t index, const std::string& service,
                      int partitions, Outcome& outcome);

// membership.rows_held: directory rows summed over running daemons.
uint64_t rows_held(tamp::protocols::Cluster& cluster);

// The traced run's layer probes for the run_scenario workloads, whose
// simulation is out of reach: a hierarchical racked cluster of `nodes`
// with the WorkloadDriver's services, built and converged through public
// constructors. Runs `requests` of virtual time past the workload's warmup
// with the event-gap hook on, then records sim.event_ns_*,
// protocols.converged_ns, membership.rows_held and probe_membership() on
// daemon 0. A directory that does not converge, or does not list both
// providers of partition 0, is reported as an error.
void probe_directory(size_t nodes, uint64_t seed,
                     tamp::sim::Duration requests, Spans& spans,
                     Outcome& outcome);

// membership.rss_bytes_per_row: peak_rss_mb over the rows of `copies`
// concurrent clusters holding membership.rows_held rows each.
void set_rss_per_row(Outcome& outcome, size_t copies);

}  // namespace perfbench
