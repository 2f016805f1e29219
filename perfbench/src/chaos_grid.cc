// chaos-grid-12: chaos::full_matrix over every scheme, shape and plan at
// 12 nodes for 12 consecutive seeds starting at the benchmark seed, run
// through chaos::run_scenarios on a fixed worker count. Oracle-failed
// scenarios are graded outcomes (op_fail_rate), not benchmark errors.
#include <algorithm>
#include <atomic>
#include <thread>

#include "probes.h"
#include "report.h"
#include "sim/parallel_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace tamp;

namespace {

constexpr size_t kNodes = 12;
constexpr uint64_t kSeedCount = 12;
constexpr int kSetups = 3;
constexpr unsigned kJobs = 4;  // worker threads, capped at the hardware's

std::vector<chaos::ScenarioSpec> grid(uint64_t seed, bool traced) {
  chaos::MatrixOptions matrix;
  matrix.first_seed = seed;
  matrix.seed_count = kSeedCount;
  matrix.nodes = kNodes;
  matrix.metrics = true;
  matrix.trace = traced;
  return chaos::full_matrix(matrix);
}

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double run_s = 0;             // host time summed over run_scenario calls
  std::vector<double> call_ms;  // host wall per run_scenario call
  Counters counters;
  Fingerprint print;
  uint64_t oracle_failed = 0;
  uint64_t oracle_checks = 0;
  uint64_t events = 0;
  uint64_t trace_events = 0;
};

Pass run_pass(const std::vector<chaos::ScenarioSpec>& specs, size_t jobs,
              const std::string& name, Spans& spans, Outcome& outcome) {
  Pass pass;
  std::mutex mu;
  std::atomic<uint64_t> trace_events{0};
  ScopedSpan span(spans, name);
  const int64_t parent = span.id();

  chaos::ParallelRunOptions options;
  options.jobs = jobs;
  options.run = [&](const chaos::ScenarioSpec& spec) {
    ScopedSpan call(spans, "run_scenario", parent);
    const Clock::time_point start = Clock::now();
    chaos::ScenarioResult result = chaos::run_scenario(spec);
    const double took = seconds_since(start);
    trace_events += static_cast<uint64_t>(
        std::count(result.trace_jsonl.begin(), result.trace_jsonl.end(), '\n'));
    result.trace_jsonl.clear();
    std::lock_guard<std::mutex> lock(mu);
    pass.call_ms.push_back(took * 1e3);
    pass.run_s += took;
    return result;
  };
  options.on_result = [&](size_t, const chaos::ScenarioResult& result) {
    ++outcome.attempted;
    const size_t errors_before = outcome.errors.size();
    const bool oracle_ok = grade_scenario(outcome, result);
    if (outcome.errors.size() != errors_before) ++outcome.failed;
    pass.oracle_failed += oracle_ok ? 0 : 1;
    pass.oracle_checks += result.oracle_checks;
    pass.events += result.events;
    accumulate(pass.counters, counters_of_json(result.metrics_json));
    pass.print[result.name + ".violations"] =
        static_cast<double>(result.violation_count);
    pass.print[result.name + ".events"] = static_cast<double>(result.events);
    pass.print[result.name + ".checks"] =
        static_cast<double>(result.oracle_checks);
    pass.print[result.name + ".converged"] =
        static_cast<double>(result.final_converged);
  };

  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const std::vector<chaos::ScenarioResult> results =
      chaos::run_scenarios(specs, options);
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.trace_events = trace_events;
  if (results.size() != specs.size()) {
    outcome.error("chaos grid: " + std::to_string(results.size()) +
                  " results for " + std::to_string(specs.size()) + " specs");
  }
  fingerprint_counters(pass.print, pass.counters);
  return pass;
}

// Set-up cost of the grid: each scenario's simulated stack (topology,
// network, cluster) built through the public constructors.
double build_all(const std::vector<chaos::ScenarioSpec>& specs) {
  double total = 0;
  for (const chaos::ScenarioSpec& scenario : specs) {
    StackSpec spec;
    spec.scheme = scenario.scheme;
    spec.shape = scenario.shape;
    spec.nodes = scenario.nodes;
    spec.seed = scenario.seed;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Stack> stack = build_stack(spec);
    total += seconds_since(start);
  }
  return total;
}

}  // namespace

Outcome run_chaos_grid(const Options& options) {
  Outcome outcome;
  Spans spans(options.trace);
  const size_t jobs =
      std::max(1u, std::min(kJobs, std::thread::hardware_concurrency()));

  std::vector<chaos::ScenarioSpec> specs;
  std::vector<double> setups;
  {
    ScopedSpan span(spans, "setup");
    for (int i = 0; i < kSetups; ++i) {
      ScopedSpan build(spans, "build");
      const Clock::time_point start = Clock::now();
      specs = grid(options.seed, false);
      const double matrix_s = seconds_since(start);
      setups.push_back(matrix_s + build_all(specs));
    }
  }
  outcome.set("setup_s", median(setups), "s");

  std::vector<Pass> passes;
  const double budget = options.trace ? 0 : options.seconds;
  repeat_within(budget, [&] {
    passes.push_back(run_pass(specs, jobs, "grid_pass", spans, outcome));
    if (passes.size() == 1) outcome.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return passes.back().wall_s;
  });

  std::vector<double> walls, cpus, calls, run_s;
  for (const Pass& pass : passes) {
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    run_s.push_back(pass.run_s);
    calls.insert(calls.end(), pass.call_ms.begin(), pass.call_ms.end());
    check_same(outcome, "repetition", passes.front().print, pass.print);
  }
  const Pass& first = passes.front();
  const double scenarios = static_cast<double>(specs.size());
  outcome.set("wall_s", median(walls), "s");
  outcome.repetition_walls = walls;
  outcome.set("cpu_s", median(cpus), "s");
  outcome.set("op_fail_rate",
              static_cast<double>(first.oracle_failed) / scenarios, "ratio");
  outcome.set("scenario_p50_ms", percentile(calls, 0.50), "ms");
  outcome.set("scenario_p99_ms", percentile(calls, 0.99), "ms");
  outcome.set("scenario_samples", static_cast<double>(calls.size()), "count");
  outcome.set("sim.events", static_cast<double>(first.events), "count");
  outcome.set("sim.run_s", median(run_s), "s");
  set_counter_metrics(outcome, first.counters);
  set_workload_metrics(outcome, workload::PhaseSlo{});
  outcome.set("chaos.scenarios", scenarios, "count");
  outcome.set("chaos.scenarios_failed",
              static_cast<double>(first.oracle_failed), "count");
  outcome.set("chaos.oracle_checks", static_cast<double>(first.oracle_checks),
              "count");
  outcome.set("chaos.events_per_scenario",
              static_cast<double>(first.events) / scenarios, "count");

  if (options.trace) {
    const Pass traced = run_pass(grid(options.seed, true), jobs,
                                 "grid_pass.traced", spans, outcome);
    check_same(outcome, "traced vs untraced", first.print, traced.print);
    const Pass serial = run_pass(specs, 1, "grid_pass.serial", spans, outcome);
    check_same(outcome, "1 worker vs " + std::to_string(jobs), first.print,
               serial.print);
    outcome.set("obs.trace_events", static_cast<double>(traced.trace_events),
                "count");
    outcome.set("obs.trace_overhead_s", traced.wall_s - first.wall_s, "s");
    probe_directory(kNodes, options.seed, 30 * sim::kSecond, spans, outcome);
    set_rss_per_row(outcome, 1);
    const std::string path = options.out_dir + "/spans-chaos-grid-12-s" +
                             std::to_string(options.seed) + ".json";
    if (!spans.write_json(path, options.workload, options.seed)) {
      outcome.error("cannot write span dump " + path);
    }
  }
  return outcome;
}

}  // namespace perfbench
