// slo-flap-192: the hierarchical scheme on the racked shape under the
// router-flap plan at 192 nodes, with the application workload on every
// node — one chaos::run_scenario call per repetition, on this thread, the
// path bench/slo_churn takes.
#include <algorithm>

#include "probes.h"
#include "report.h"
#include "sim/scenario.h"
#include "workloads.h"

namespace perfbench {

using namespace tamp;

namespace {

constexpr size_t kNodes = 192;
constexpr int kSetups = 15;
constexpr size_t kCopies = 2;  // concurrent identical calls per repetition

chaos::ScenarioSpec scenario(uint64_t seed, bool traced) {
  chaos::ScenarioSpec spec;
  spec.scheme = protocols::Scheme::kHierarchical;
  spec.shape = chaos::ShapeKind::kRacked;
  spec.plan = chaos::PlanKind::kRouterFlap;
  spec.seed = seed;
  spec.nodes = kNodes;
  spec.slo = true;
  spec.metrics = true;
  spec.trace = traced;
  // Room for every trace event of the run, so obs.trace_events counts
  // them all rather than the ring's default capacity.
  spec.trace_capacity = size_t{1} << 21;
  return spec;
}

StackSpec stack_spec(uint64_t seed) {
  StackSpec spec;
  spec.nodes = kNodes;
  spec.seed = seed;
  spec.workload = true;
  return spec;
}

// One run_scenario call of a repetition.
struct Call {
  double wall_s = 0;
  double cpu_s = 0;  // CPU time of the thread that made the call
  chaos::ScenarioResult result;
  Counters counters;
  Fingerprint print;
  uint64_t trace_events = 0;
};

// One repetition: kCopies identical run_scenario calls at once, each on its
// own thread. The copies are the determinism cross-check of every run, and
// their median damps host noise that hits one core only.
std::vector<Call> run_repetition(const Options& options, bool traced,
                                 Spans& spans, Outcome& outcome) {
  const chaos::ScenarioSpec spec = scenario(options.seed, traced);
  std::vector<Call> calls(kCopies);
  ScopedSpan span(spans, traced ? "repetition.traced" : "repetition");
  const int64_t parent = span.id();
  const std::vector<std::string> thrown = run_copies(kCopies, [&](size_t k) {
    Call& call = calls[k];
    ScopedSpan call_span(spans, "run_scenario", parent);
    const double cpu0 = thread_cpu_s();
    const Clock::time_point start = Clock::now();
    call.result = chaos::run_scenario(spec);
    call.wall_s = seconds_since(start);
    call.cpu_s = thread_cpu_s() - cpu0;
  });
  for (size_t k = 0; k < calls.size(); ++k) {
    Call& call = calls[k];
    ++outcome.attempted;
    const size_t errors_before = outcome.errors.size();
    if (!thrown[k].empty()) {
      outcome.error("run_scenario threw: " + thrown[k]);
    } else {
      grade_scenario(outcome, call.result);
      check_slo_identity(outcome, call.result);
    }
    if (outcome.errors.size() != errors_before) ++outcome.failed;

    call.counters = counters_of_json(call.result.metrics_json);
    call.trace_events = static_cast<uint64_t>(std::count(
        call.result.trace_jsonl.begin(), call.result.trace_jsonl.end(), '\n'));
    call.result.trace_jsonl.clear();
    fingerprint_counters(call.print, call.counters);
    fingerprint_slo(call.print, "slo.", call.result.slo_phases);
    call.print["events"] = static_cast<double>(call.result.events);
    call.print["oracle_checks"] =
        static_cast<double>(call.result.oracle_checks);
    call.print["violations"] =
        static_cast<double>(call.result.violation_count);
  }
  return calls;
}

std::vector<double> walls_of(const std::vector<Call>& calls) {
  std::vector<double> walls;
  for (const Call& call : calls) walls.push_back(call.wall_s);
  return walls;
}

}  // namespace

Outcome run_slo_flap(const Options& options) {
  Outcome outcome;
  Spans spans(options.trace);

  std::vector<double> setups;
  {
    ScopedSpan span(spans, "setup");
    for (int i = 0; i < kSetups; ++i) {
      ScopedSpan build(spans, "build");
      const Clock::time_point start = Clock::now();
      std::unique_ptr<Stack> stack = build_stack(stack_spec(options.seed));
      setups.push_back(seconds_since(start));
    }
  }
  outcome.set("setup_s", median(setups), "s");

  std::vector<Call> calls;
  const double budget = options.trace ? 0 : options.seconds;
  repeat_within(budget, [&] {
    const Clock::time_point start = Clock::now();
    for (Call& call : run_repetition(options, false, spans, outcome)) {
      calls.push_back(std::move(call));
    }
    if (calls.size() == kCopies) {
      outcome.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    return seconds_since(start);
  });
  if (calls.front().result.slo_phases.size() !=
      static_cast<size_t>(workload::kPhaseCount)) {
    return outcome;  // check_slo_identity has reported it
  }
  const Call& first = calls.front();
  const workload::PhaseSlo total = sum_phases(first.result.slo_phases);
  std::vector<double> cpus, rates;
  for (const Call& call : calls) {
    cpus.push_back(call.cpu_s);
    rates.push_back(static_cast<double>(total.issued) / call.cpu_s);
    check_same(outcome, "repeated call", first.print, call.print);
  }
  const std::vector<double> walls = walls_of(calls);
  outcome.set("wall_s", median(walls), "s");
  outcome.repetition_walls = walls;
  outcome.set("cpu_s", median(cpus), "s");

  const workload::PhaseSlo& fault = first.result.slo_phases.at(1);
  const double issued =
      static_cast<double>(std::max<uint64_t>(1, total.issued));
  outcome.set("op_fail_rate",
              static_cast<double>(total.failed + total.aborted +
                                  total.unresolved) /
                  issued,
              "ratio");
  outcome.set("requests_per_cpu_s", median(rates), "1/cpu_s");
  outcome.set("misroute_rate", static_cast<double>(total.misroutes) / issued,
              "1/request");
  outcome.set("fault_p50_ms", static_cast<double>(fault.p50_ns) / 1e6,
              "sim_ms");
  outcome.set("fault_p999_ms", static_cast<double>(fault.p999_ns) / 1e6,
              "sim_ms");
  outcome.set("fault_samples", static_cast<double>(fault.ok), "count");
  outcome.set("scenario_p50_ms", percentile(walls, 0.50) * 1e3, "ms");
  outcome.set("scenario_p99_ms", percentile(walls, 0.99) * 1e3, "ms");
  outcome.set("scenario_samples", static_cast<double>(walls.size()), "count");

  outcome.set("sim.events", static_cast<double>(first.result.events), "count");
  outcome.set("sim.run_s", median(walls), "s");
  set_counter_metrics(outcome, first.counters);
  set_workload_metrics(outcome, total);
  outcome.set("chaos.scenarios", 1, "count");
  outcome.set("chaos.scenarios_failed",
              first.result.violation_count == 0 ? 0 : 1, "count");
  outcome.set("chaos.oracle_checks",
              static_cast<double>(first.result.oracle_checks), "count");
  outcome.set("chaos.events_per_scenario",
              static_cast<double>(first.result.events), "count");

  if (options.trace) {
    const std::vector<Call> traced =
        run_repetition(options, true, spans, outcome);
    for (const Call& call : traced) {
      check_same(outcome, "traced vs untraced", first.print, call.print);
    }
    outcome.set("obs.trace_events",
                static_cast<double>(traced.front().trace_events), "count");
    outcome.set("obs.trace_overhead_s",
                median(walls_of(traced)) - median(walls), "s");
    probe_directory(kNodes, options.seed, 5 * sim::kSecond, spans, outcome);
    set_rss_per_row(outcome, kCopies);
    const std::string path = options.out_dir + "/spans-slo-flap-192-s" +
                             std::to_string(options.seed) + ".json";
    if (!spans.write_json(path, options.workload, options.seed)) {
      outcome.error("cannot write span dump " + path);
    }
  }
  return outcome;
}

}  // namespace perfbench
