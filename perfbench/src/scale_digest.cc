// scale-digest-500: a 500-node hierarchical cluster (racked networks of
// 20) in digest anti-entropy mode, driven through the bench/scale_limits
// sequence — formation, quiescence, a steady window, one failure — with the
// benchmark owning every run_until call. No workload, no lookups.
#include <algorithm>

#include "probes.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

using namespace tamp;

namespace {

constexpr size_t kNodes = 500;
constexpr int kHostsPerRack = 20;
constexpr int kSetups = 5;       // set-up rounds of kCopies builds each
constexpr size_t kCopies = 2;     // concurrent sequences per repetition
constexpr sim::Duration kRefreshInterval = 10 * sim::kSecond;
constexpr sim::Duration kWindow = 20 * sim::kSecond;
constexpr sim::Time kFormationHorizon = 180 * sim::kSecond;

// Wire kinds that carry anti-entropy traffic (bench/scale_limits).
const char* const kAntiEntropyKinds[] = {
    "update",       "refresh_digest", "refresh_pull", "refresh_delta",
    "sync_request", "sync_response",  "busy"};

StackSpec stack_spec(uint64_t seed) {
  StackSpec spec;
  spec.nodes = kNodes;
  spec.seed = seed;
  spec.hosts_per_rack = kHostsPerRack;
  spec.scenario_settings = false;
  spec.hier_digest = true;
  spec.heartbeat_pad = 228;  // the paper's measured per-node info size
  return spec;
}

struct Rep {
  std::vector<std::string> errors;  // correctness failures of this sequence
  double wall_s = 0;
  double cpu_s = 0;
  double run_s = 0;  // host time inside run_until
  std::vector<double> converged_ns;
  Counters counters;  // whole sequence, kNet summed across its resets
  Fingerprint print;
  uint64_t trace_events = 0;
};

Counters net_counters(const obs::MetricsRegistry& registry) {
  Counters net;
  for (const auto& [key, value] : counters_of(registry)) {
    if (key.starts_with("net.")) net[key] = value;
  }
  return net;
}

// One pass of the scale_limits sequence on a freshly built stack, under
// span `parent`. The stack survives the call so the traced run can probe
// its directory.
Rep run_sequence(Stack& stack, bool traced, Spans& spans, int64_t parent,
                 GapSampler* gaps) {
  Rep rep;
  sim::Simulation& sim = *stack.sim;
  protocols::Cluster& cluster = *stack.cluster;
  obs::MetricsRegistry& metrics = stack.network->obs().metrics;
  if (traced) stack.network->obs().tracer.set_enabled(true);
  std::unique_ptr<EventGapHook> hook;
  if (gaps != nullptr) hook = std::make_unique<EventGapHook>(sim, *gaps);

  const size_t victim_index = kNodes / 2;
  const net::HostId victim = stack.layout.hosts[victim_index];
  sim::Time last_join = -1, first_death = -1, last_death = -1;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (alive) {
          last_join = std::max(last_join, when);
        } else if (subject == victim) {
          if (first_death < 0) first_death = when;
          last_death = when;
        }
      });

  auto run_phase = [&](const char* name, sim::Time until) {
    ScopedSpan span(spans, name);
    const Clock::time_point start = Clock::now();
    sim.run_until(until);
    rep.run_s += seconds_since(start);
  };

  ScopedSpan sequence(spans, traced ? "sequence.traced" : "sequence", parent);
  const double cpu0 = thread_cpu_s();
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "start_all");
    cluster.start_all();
  }

  // Formation: poll converged() every 0.5 s; the formation time is the
  // last view addition before the first converged poll.
  double formed_s = -1;
  while (sim.now() < kFormationHorizon) {
    run_phase("run_until.formation", sim.now() + 500 * sim::kMillisecond);
    ScopedSpan span(spans, "converged");
    const Clock::time_point poll = Clock::now();
    const bool converged = cluster.converged();
    rep.converged_ns.push_back(seconds_since(poll) * 1e9);
    if (converged) {
      formed_s = sim::to_seconds(last_join);
      break;
    }
  }

  double per_node_kbps = 0, ae_per_round = 0, detect_s = -1, converge_s = -1;
  bool reconverged = false;
  if (formed_s >= 0) {
    // Quiescence: 10 s steps until one is free of elections and solicited
    // image traffic (at most 30 steps).
    for (int step = 0; step < 30; ++step) {
      accumulate(rep.counters, net_counters(metrics));
      metrics.reset(obs::Protocol::kNet);
      run_phase("run_until.quiesce", sim.now() + 10 * sim::kSecond);
      if (metrics.counter_value(obs::Protocol::kNet,
                                "tx_bytes_kind_sync_response") == 0 &&
          metrics.counter_value(obs::Protocol::kNet,
                                "tx_bytes_kind_election") == 0 &&
          metrics.counter_value(obs::Protocol::kNet,
                                "tx_bytes_kind_coordinator") == 0) {
        break;
      }
    }

    accumulate(rep.counters, net_counters(metrics));
    metrics.reset(obs::Protocol::kNet);
    run_phase("run_until.window", sim.now() + kWindow);
    const double window_s = sim::to_seconds(kWindow);
    per_node_kbps =
        static_cast<double>(
            metrics.counter_value(obs::Protocol::kNet, "rx_wire_bytes")) /
        window_s / kNodes / 1e3;
    uint64_t ae_bytes = 0;
    for (const char* kind : kAntiEntropyKinds) {
      ae_bytes += metrics.counter_value(obs::Protocol::kNet,
                                        std::string("tx_bytes_kind_") + kind);
    }
    ae_per_round = static_cast<double>(ae_bytes) /
                   (window_s / sim::to_seconds(kRefreshInterval)) / kNodes;

    const sim::Time killed_at = sim.now();
    {
      ScopedSpan span(spans, "kill");
      cluster.kill(victim_index);
    }
    run_phase("run_until.failure", killed_at + 30 * sim::kSecond);
    if (first_death >= 0) detect_s = sim::to_seconds(first_death - killed_at);
    if (last_death >= 0) converge_s = sim::to_seconds(last_death - killed_at);
    ScopedSpan span(spans, "converged");
    const Clock::time_point poll = Clock::now();
    reconverged = cluster.converged();
    rep.converged_ns.push_back(seconds_since(poll) * 1e9);
  }
  rep.wall_s = seconds_since(start);
  rep.cpu_s = thread_cpu_s() - cpu0;
  hook.reset();
  cluster.set_change_listener(nullptr);

  if (formed_s < 0) rep.errors.push_back("scale: the cluster never formed");
  if (detect_s < 0) {
    rep.errors.push_back("scale: the failure was never detected");
  }
  if (formed_s >= 0 && !reconverged) {
    rep.errors.push_back("scale: views did not reconverge after the failure");
  }

  accumulate(rep.counters, counters_of(metrics));
  rep.trace_events = stack.network->obs().tracer.recorded();
  fingerprint_counters(rep.print, rep.counters);
  rep.print["formed_s"] = formed_s;
  rep.print["detect_s"] = detect_s;
  rep.print["converge_s"] = converge_s;
  rep.print["per_node_kbps"] = per_node_kbps;
  rep.print["ae_bytes_per_node_round"] = ae_per_round;
  rep.print["sim.events"] = static_cast<double>(sim.events_executed());
  rep.print["converged_polls"] = static_cast<double>(rep.converged_ns.size());
  return rep;
}

// One repetition: one sequence per stack in `stacks`, all at once, each on
// its own thread. The copies are the determinism cross-check of every run,
// and their median damps host noise that hits one core only. `gaps`, when
// given, samples the first copy's event gaps.
std::vector<Rep> run_repetition(
    const std::vector<std::unique_ptr<Stack>>& stacks, bool traced,
    Spans& spans, Outcome& outcome, GapSampler* gaps) {
  std::vector<Rep> reps(stacks.size());
  ScopedSpan span(spans, traced ? "repetition.traced" : "repetition");
  const int64_t parent = span.id();
  const std::vector<std::string> thrown =
      run_copies(stacks.size(), [&](size_t k) {
        reps[k] = run_sequence(*stacks[k], traced, spans, parent,
                               k == 0 ? gaps : nullptr);
      });
  for (size_t k = 0; k < reps.size(); ++k) {
    ++outcome.attempted;
    if (!thrown[k].empty()) {
      reps[k].errors.push_back("scale threw: " + thrown[k]);
    }
    for (const std::string& error : reps[k].errors) outcome.error(error);
    if (!reps[k].errors.empty()) ++outcome.failed;
  }
  return reps;
}

}  // namespace

Outcome run_scale_digest(const Options& options) {
  Outcome outcome;
  Spans spans(options.trace);

  std::vector<double> setups;
  std::vector<std::unique_ptr<Stack>> stacks;  // for the next repetition
  auto build_copies = [&] {
    stacks.clear();
    for (size_t k = 0; k < kCopies; ++k) {
      ScopedSpan span(spans, "build");
      const Clock::time_point start = Clock::now();
      stacks.push_back(build_stack(stack_spec(options.seed)));
      setups.push_back(seconds_since(start));
    }
  };
  {
    ScopedSpan span(spans, "setup");
    for (int i = 0; i < kSetups; ++i) build_copies();
  }

  std::vector<Rep> reps;
  const double budget = options.trace ? 0 : options.seconds;
  repeat_within(budget, [&] {
    if (stacks.empty()) build_copies();
    const Clock::time_point start = Clock::now();
    for (Rep& rep : run_repetition(stacks, false, spans, outcome, nullptr)) {
      reps.push_back(std::move(rep));
    }
    if (reps.size() == kCopies) {
      outcome.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    stacks.clear();
    return seconds_since(start);
  });
  outcome.set("setup_s", median(setups), "s");

  std::vector<double> walls, cpus, run_s;
  for (const Rep& rep : reps) {
    walls.push_back(rep.wall_s);
    cpus.push_back(rep.cpu_s);
    run_s.push_back(rep.run_s);
    check_same(outcome, "repeated sequence", reps.front().print, rep.print);
  }
  const Rep& first = reps.front();
  outcome.set("wall_s", median(walls), "s");
  outcome.repetition_walls = walls;
  outcome.set("cpu_s", median(cpus), "s");
  outcome.set("op_fail_rate",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              "ratio");
  for (const char* name : {"formed_s", "detect_s", "converge_s"}) {
    outcome.set(name, first.print.at(name), "sim_s");
  }
  outcome.set("per_node_kbps", first.print.at("per_node_kbps"), "kB/sim_s");
  outcome.set("ae_bytes_per_node_round",
              first.print.at("ae_bytes_per_node_round"), "bytes");
  // This workload's scenario is one 500-node sequence.
  outcome.set("scenario_p50_ms", percentile(walls, 0.50) * 1e3, "ms");
  outcome.set("scenario_p99_ms", percentile(walls, 0.99) * 1e3, "ms");
  outcome.set("scenario_samples", static_cast<double>(walls.size()), "count");
  outcome.set("sim.events", first.print.at("sim.events"), "count");
  outcome.set("sim.run_s", median(run_s), "s");
  outcome.set("protocols.converged_ns", median(first.converged_ns), "ns");
  set_counter_metrics(outcome, first.counters);

  if (options.trace) {
    GapSampler gaps;
    build_copies();
    const std::vector<Rep> traced =
        run_repetition(stacks, true, spans, outcome, &gaps);
    std::vector<double> traced_walls;
    for (const Rep& rep : traced) {
      check_same(outcome, "traced vs untraced", first.print, rep.print);
      traced_walls.push_back(rep.wall_s);
    }
    outcome.set("sim.event_ns_p50", gaps.percentile(0.50), "ns");
    outcome.set("sim.event_ns_p99", gaps.percentile(0.99), "ns");
    outcome.set("obs.trace_events",
                static_cast<double>(traced.front().trace_events), "count");
    outcome.set("obs.trace_overhead_s",
                median(traced_walls) - median(walls), "s");
    Stack& stack = *stacks.front();
    outcome.set("membership.rows_held",
                static_cast<double>(rows_held(*stack.cluster)), "count");
    set_rss_per_row(outcome, kCopies);
    {
      ScopedSpan span(spans, "probe_membership");
      probe_membership(stack, 0, "app", 1, outcome);
    }
    stacks.clear();
    const std::string path = options.out_dir + "/spans-scale-digest-500-s" +
                             std::to_string(options.seed) + ".json";
    if (!spans.write_json(path, options.workload, options.seed)) {
      outcome.error("cannot write span dump " + path);
    }
  }
  return outcome;
}

}  // namespace perfbench
