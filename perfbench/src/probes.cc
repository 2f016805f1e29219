#include "probes.h"

#include <algorithm>
#include <string>

#include "membership/codec.h"
#include "membership/table.h"
#include "membership/wire.h"

namespace perfbench {

using namespace tamp;

std::unique_ptr<Stack> build_stack(const StackSpec& spec) {
  auto stack = std::make_unique<Stack>();
  stack->sim = std::make_unique<sim::Simulation>(spec.seed);
  stack->topology = std::make_unique<net::Topology>();
  const int nodes = static_cast<int>(spec.nodes);
  const char* prefix = spec.scenario_settings ? "chaos" : "node";
  switch (spec.shape) {
    case chaos::ShapeKind::kSingleSegment:
      stack->layout =
          net::build_single_segment(*stack->topology, nodes, 0, prefix);
      break;
    case chaos::ShapeKind::kRacked: {
      net::RackedClusterParams params;
      params.name_prefix = prefix;
      if (spec.hosts_per_rack > 0) {
        params.hosts_per_rack = spec.hosts_per_rack;
        params.racks = (nodes + spec.hosts_per_rack - 1) / spec.hosts_per_rack;
      } else {
        params.racks = 3;
        params.hosts_per_rack = nodes / 3;
      }
      stack->layout = net::build_racked_cluster(*stack->topology, params);
      stack->layout.hosts.resize(spec.nodes);
      break;
    }
    case chaos::ShapeKind::kRouterChain:
      stack->layout =
          net::build_router_chain(*stack->topology, 3, nodes / 3, 0, prefix);
      break;
  }

  net::NetworkConfig net_config;
  protocols::Cluster::Options opts;
  opts.scheme = spec.scheme;
  opts.heartbeat_pad = spec.heartbeat_pad;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  if (spec.scenario_settings) {
    net_config.egress_bytes_per_sec = 12.5e6;
    net_config.egress_queue_bytes = 256 * 1024;
    opts.hier.max_ttl = std::max(1, stack->topology->max_ttl());
    opts.hier.topology_poll_interval = opts.hier.period;
  }
  if (spec.hier_digest) {
    opts.hier.anti_entropy_mode = protocols::AntiEntropyMode::kDigest;
  }
  stack->network = std::make_unique<net::Network>(
      *stack->sim, *stack->topology, net_config);
  stack->cluster = std::make_unique<protocols::Cluster>(
      *stack->sim, *stack->network, stack->layout.hosts, opts);
  if (spec.workload) {
    workload::WorkloadConfig config;
    config.warmup = 10 * sim::kSecond;
    stack->workload = std::make_unique<workload::WorkloadDriver>(
        *stack->sim, *stack->network, *stack->cluster, config, spec.seed);
  }
  return stack;
}

bool run_until_converged(Stack& stack, sim::Time horizon, sim::Duration tick,
                         std::vector<double>* converged_ns) {
  while (stack.sim->now() < horizon) {
    stack.sim->run_until(stack.sim->now() + tick);
    const Clock::time_point start = Clock::now();
    const bool converged = stack.cluster->converged();
    if (converged_ns != nullptr) {
      converged_ns->push_back(seconds_since(start) * 1e9);
    }
    if (converged) return true;
  }
  return false;
}

EventGapHook::EventGapHook(sim::Simulation& sim, GapSampler& gaps)
    : sim_(sim) {
  sim_.set_trace_hook(
      [&gaps, previous = Clock::time_point{}](sim::Time, sim::EventId) mutable {
        const Clock::time_point now = Clock::now();
        if (previous != Clock::time_point{}) {
          gaps.add(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                   previous)
                  .count()));
        }
        previous = now;
      });
}

EventGapHook::~EventGapHook() { sim_.set_trace_hook(nullptr); }

namespace {

// Host nanoseconds per operation: `batch(n)` performs n operations; the
// batch size is grown until one batch takes at least 5 ms, then the median
// of seven batches is taken.
template <class Batch>
double ns_per_op(Batch batch) {
  size_t n = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    batch(n);
    if (seconds_since(start) >= 5e-3 || n >= (size_t{1} << 30)) break;
    n *= 2;
  }
  std::vector<double> samples;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point start = Clock::now();
    batch(n);
    samples.push_back(seconds_since(start) * 1e9 / static_cast<double>(n));
  }
  return median(samples);
}

}  // namespace

void probe_membership(Stack& stack, size_t index, const std::string& service,
                      int partitions, Outcome& outcome) {
  const membership::MembershipTable& table =
      stack.cluster->daemon(index).table();
  const std::vector<membership::MembershipTable::Row>& rows = table.entries();
  if (rows.empty()) {
    outcome.error("membership probe: daemon " + std::to_string(index) +
                  " holds an empty directory");
    return;
  }
  size_t sink = 0;

  std::vector<std::string> specs;
  for (int p = 0; p < std::max(1, partitions); ++p) {
    specs.push_back(std::to_string(p));
  }
  outcome.set("membership.lookup_ns", ns_per_op([&](size_t n) {
                for (size_t i = 0; i < n; ++i) {
                  sink += table.lookup(service, specs[i % specs.size()]).size();
                }
              }),
              "ns");

  std::vector<uint8_t> scratch;
  outcome.set("membership.encode_entry_ns", ns_per_op([&](size_t n) {
                for (size_t i = 0; i < n; ++i) {
                  membership::WireWriter writer(std::move(scratch));
                  membership::encode_entry(writer,
                                           rows[i % rows.size()].second.data);
                  sink += writer.size();
                  scratch = writer.take();
                }
              }),
              "ns");

  std::vector<std::vector<uint8_t>> encoded;
  double wire_bytes = 0;
  for (const auto& [node, entry] : rows) {
    membership::WireWriter writer;
    membership::encode_entry(writer, entry.data);
    wire_bytes +=
        static_cast<double>(membership::encoded_entry_size(entry.data));
    encoded.push_back(writer.take());
    membership::WireReader reader(encoded.back());
    const std::optional<membership::EntryData> decoded =
        membership::decode_entry(reader);
    if (!decoded || !(*decoded == entry.data)) {
      outcome.error("membership probe: row " + std::to_string(node) +
                    " does not survive an encode/decode round trip");
    }
  }
  outcome.set("membership.row_wire_bytes",
              wire_bytes / static_cast<double>(rows.size()), "bytes");
  outcome.set("membership.decode_entry_ns", ns_per_op([&](size_t n) {
                for (size_t i = 0; i < n; ++i) {
                  membership::WireReader reader(encoded[i % encoded.size()]);
                  sink += membership::decode_entry(reader).has_value();
                }
              }),
              "ns");

  // Refresh path: re-applying each row's own data, as a leader's periodic
  // refresh does for every unchanged row, on a private copy of the table.
  membership::MembershipTable copy = table;
  const sim::Time now = stack.sim->now();
  size_t added = 0;
  outcome.set("membership.apply_refresh_ns", ns_per_op([&](size_t n) {
                for (size_t i = 0; i < n; ++i) {
                  const membership::MembershipEntry& entry =
                      rows[i % rows.size()].second;
                  added += copy.apply(entry.data, entry.liveness,
                                      entry.relayed_by, now) ==
                           membership::ApplyResult::kAdded;
                }
              }),
              "ns");
  if (added != 0) {
    outcome.error("membership probe: refresh of a held row added a row");
  }
  if (sink == 0) outcome.error("membership probe: timed calls did no work");
}

uint64_t rows_held(protocols::Cluster& cluster) {
  uint64_t rows = 0;
  for (size_t index : cluster.running_indices()) {
    rows += cluster.daemon(index).table().size();
  }
  return rows;
}

void probe_directory(size_t nodes, uint64_t seed, sim::Duration requests,
                     Spans& spans, Outcome& outcome) {
  ScopedSpan span(spans, "probe");
  StackSpec spec;
  spec.nodes = nodes;
  spec.seed = seed;
  spec.workload = true;
  std::unique_ptr<Stack> stack;
  {
    ScopedSpan build(spans, "build");
    stack = build_stack(spec);
  }
  {
    ScopedSpan start(spans, "start_all");
    stack->cluster->start_all();
    stack->workload->start();
  }
  std::vector<double> converged_ns;
  {
    ScopedSpan converge(spans, "run_until.formation");
    if (!run_until_converged(*stack, 60 * sim::kSecond,
                             500 * sim::kMillisecond, &converged_ns)) {
      outcome.error("probe: the " + std::to_string(nodes) +
                    "-node directory did not converge");
    }
  }
  GapSampler gaps;
  {
    // Past the workload's warmup, so the gaps include request traffic.
    ScopedSpan run(spans, "run_until.requests");
    EventGapHook hook(*stack->sim, gaps);
    stack->sim->run_until(
        std::max<sim::Time>(stack->sim->now(), 20 * sim::kSecond) + requests);
  }
  outcome.set("sim.event_ns_p50", gaps.percentile(0.50), "ns");
  outcome.set("sim.event_ns_p99", gaps.percentile(0.99), "ns");
  outcome.set("protocols.converged_ns", median(converged_ns), "ns");
  outcome.set("membership.rows_held",
              static_cast<double>(rows_held(*stack->cluster)), "count");

  const workload::WorkloadConfig config;
  const size_t replicas = stack->cluster->daemon(0)
                              .table()
                              .lookup(config.service, "0")
                              .size();
  if (replicas != static_cast<size_t>(config.replicas)) {
    outcome.error("probe: the directory lists " + std::to_string(replicas) +
                  " providers of partition 0, expected " +
                  std::to_string(config.replicas));
  }
  ScopedSpan membership(spans, "probe_membership");
  probe_membership(*stack, 0, config.service, config.partitions, outcome);
}

void set_rss_per_row(Outcome& outcome, size_t copies) {
  const double rows = outcome.find("membership.rows_held")->value *
                      static_cast<double>(copies);
  outcome.set("membership.rss_bytes_per_row",
              outcome.find("peak_rss_mb")->value * 1024 * 1024 /
                  std::max(1.0, rows),
              "bytes");
}

}  // namespace perfbench
