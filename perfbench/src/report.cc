#include "report.h"

#include "service/consumer.h"

namespace perfbench {

using tamp::workload::PhaseSlo;

namespace {

const char* const kNetCounters[] = {"tx_messages",      "rx_messages",
                                    "tx_wire_bytes",    "rx_wire_bytes",
                                    "dropped_messages", "tx_dropped_egress"};

// Wire kinds whose transmitted bytes are reported per kind.
const char* const kWireKinds[] = {"heartbeat",      "update",
                                  "refresh_digest", "refresh_pull",
                                  "refresh_delta",  "sync_request",
                                  "sync_response",  "busy"};

const char* const kHierCounters[] = {
    "digests_sent",           "deltas_sent",           "delta_rows_shipped",
    "digest_rows_suppressed", "digest_full_fallbacks", "syncs_served",
    "bootstraps_served",      "elections_started",     "updates_sent",
    "busy_deferrals",         "exchange_retries"};

const char* const kWorkloadCounters[] = {
    "requests_issued", "request_attempts", "requests_ok",
    "requests_failed", "misroutes",        "proxy_fallbacks"};

std::string unit_of_counter(const std::string& name) {
  return name.find("bytes") != std::string::npos ? "bytes" : "count";
}

std::vector<MetricSpec> build_per_layer() {
  std::vector<MetricSpec> specs = {
      // Workload-level outcomes; README.md names the workload each
      // belongs to.
      {"op_fail_rate", "ratio"},
      {"requests_per_cpu_s", "1/cpu_s"},
      {"misroute_rate", "1/request"},
      {"fault_p50_ms", "sim_ms"},
      {"fault_p999_ms", "sim_ms"},
      {"fault_samples", "count"},
      {"scenario_p50_ms", "ms"},
      {"scenario_p99_ms", "ms"},
      {"scenario_samples", "count"},
      {"formed_s", "sim_s"},
      {"detect_s", "sim_s"},
      {"converge_s", "sim_s"},
      {"per_node_kbps", "kB/sim_s"},
      {"ae_bytes_per_node_round", "bytes"},
      // sim
      {"sim.events", "count"},
      {"sim.run_s", "s"},
      {"sim.event_ns_p50", "ns"},
      {"sim.event_ns_p99", "ns"},
  };
  for (const char* name : kNetCounters) {
    specs.push_back({std::string("net.") + name, unit_of_counter(name)});
  }
  for (const char* kind : kWireKinds) {
    specs.push_back({std::string("net.tx_bytes_kind.") + kind, "bytes"});
  }
  for (const MetricSpec& spec : std::vector<MetricSpec>{
           {"membership.rows_held", "count"},
           {"membership.rss_bytes_per_row", "bytes"},
           {"membership.lookup_ns", "ns"},
           {"membership.encode_entry_ns", "ns"},
           {"membership.decode_entry_ns", "ns"},
           {"membership.apply_refresh_ns", "ns"},
           {"membership.row_wire_bytes", "bytes"}}) {
    specs.push_back(spec);
  }
  for (const char* name : kHierCounters) {
    specs.push_back({std::string("protocols.hier.") + name, "count"});
  }
  for (const MetricSpec& spec : std::vector<MetricSpec>{
           {"protocols.hier.digest_confirm_ratio", "ratio"},
           {"protocols.gossip.gossips_sent", "count"},
           {"protocols.alltoall.heartbeats_sent", "count"},
           {"protocols.converged_ns", "ns"}}) {
    specs.push_back(spec);
  }
  for (const char* name : kWorkloadCounters) {
    specs.push_back({std::string("workload.") + name, "count"});
  }
  specs.push_back({"workload.retry_amplification", "ratio"});
  for (int c = 1; c < tamp::service::kFailureCauseCount; ++c) {
    specs.push_back({std::string("workload.failed.") +
                         tamp::service::failure_cause_name(
                             static_cast<tamp::service::FailureCause>(c)),
                     "count"});
  }
  for (const MetricSpec& spec : std::vector<MetricSpec>{
           {"chaos.scenarios", "count"},
           {"chaos.scenarios_failed", "count"},
           {"chaos.oracle_checks", "count"},
           {"chaos.events_per_scenario", "count"},
           {"obs.trace_events", "count"},
           {"obs.trace_overhead_s", "s"}}) {
    specs.push_back(spec);
  }
  return specs;
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {{"setup_s", "s"},
                                                {"wall_s", "s"},
                                                {"cpu_s", "s"},
                                                {"peak_rss_mb", "MiB"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = build_per_layer();
  return specs;
}

void set_counter_metrics(Outcome& outcome, const Counters& counters) {
  for (const char* name : kNetCounters) {
    const std::string key = std::string("net.") + name;
    outcome.set(key, static_cast<double>(value_of(counters, key)),
                unit_of_counter(name));
  }
  for (const char* kind : kWireKinds) {
    outcome.set(std::string("net.tx_bytes_kind.") + kind,
                static_cast<double>(value_of(
                    counters, std::string("net.tx_bytes_kind_") + kind)),
                "bytes");
  }
  for (const char* name : kHierCounters) {
    outcome.set(std::string("protocols.hier.") + name,
                static_cast<double>(
                    value_of(counters, std::string("hier.") + name)),
                "count");
  }
  const uint64_t suppressed = value_of(counters, "hier.digest_rows_suppressed");
  const uint64_t shipped = value_of(counters, "hier.delta_rows_shipped");
  outcome.set("protocols.hier.digest_confirm_ratio",
              ratio(suppressed, suppressed + shipped), "ratio");
  outcome.set("protocols.gossip.gossips_sent",
              static_cast<double>(value_of(counters, "gossip.gossips_sent")),
              "count");
  outcome.set(
      "protocols.alltoall.heartbeats_sent",
      static_cast<double>(value_of(counters, "alltoall.heartbeats_sent")),
      "count");
}

PhaseSlo sum_phases(const std::vector<PhaseSlo>& phases) {
  PhaseSlo total;
  for (const PhaseSlo& p : phases) {
    total.issued += p.issued;
    total.ok += p.ok;
    total.failed += p.failed;
    total.aborted += p.aborted;
    total.unresolved += p.unresolved;
    total.attempts += p.attempts;
    total.misroutes += p.misroutes;
    total.via_proxy += p.via_proxy;
    for (size_t c = 0; c < total.failed_by_cause.size(); ++c) {
      total.failed_by_cause[c] += p.failed_by_cause[c];
    }
  }
  return total;
}

void set_workload_metrics(Outcome& outcome, const PhaseSlo& total) {
  const uint64_t values[] = {total.issued, total.attempts, total.ok,
                             total.failed, total.misroutes, total.via_proxy};
  for (size_t i = 0; i < std::size(kWorkloadCounters); ++i) {
    outcome.set(std::string("workload.") + kWorkloadCounters[i],
                static_cast<double>(values[i]), "count");
  }
  outcome.set("workload.retry_amplification",
              ratio(total.attempts, total.ok + total.failed), "ratio");
  for (int c = 1; c < tamp::service::kFailureCauseCount; ++c) {
    outcome.set(std::string("workload.failed.") +
                    tamp::service::failure_cause_name(
                        static_cast<tamp::service::FailureCause>(c)),
                static_cast<double>(
                    total.failed_by_cause[static_cast<size_t>(c)]),
                "count");
  }
}

void check_slo_identity(Outcome& outcome,
                        const tamp::chaos::ScenarioResult& result) {
  if (result.slo_phases.size() !=
      static_cast<size_t>(tamp::workload::kPhaseCount)) {
    outcome.error(result.name + ": SLO report has " +
                  std::to_string(result.slo_phases.size()) + " phases");
    return;
  }
  for (size_t i = 0; i < result.slo_phases.size(); ++i) {
    const PhaseSlo& p = result.slo_phases[i];
    if (p.issued != p.ok + p.failed + p.aborted + p.unresolved) {
      outcome.error(result.name + ": phase " +
                    tamp::workload::phase_name(static_cast<int>(i)) +
                    " issued " + std::to_string(p.issued) +
                    " != ok + failed + aborted + unresolved");
    }
  }
}

void fingerprint_slo(Fingerprint& print, const std::string& prefix,
                     const std::vector<PhaseSlo>& phases) {
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseSlo& p = phases[i];
    const std::string key =
        prefix + tamp::workload::phase_name(static_cast<int>(i)) + ".";
    const std::pair<const char*, double> fields[] = {
        {"issued", static_cast<double>(p.issued)},
        {"ok", static_cast<double>(p.ok)},
        {"failed", static_cast<double>(p.failed)},
        {"aborted", static_cast<double>(p.aborted)},
        {"unresolved", static_cast<double>(p.unresolved)},
        {"attempts", static_cast<double>(p.attempts)},
        {"misroutes", static_cast<double>(p.misroutes)},
        {"via_proxy", static_cast<double>(p.via_proxy)},
        {"p50_ns", static_cast<double>(p.p50_ns)},
        {"p99_ns", static_cast<double>(p.p99_ns)},
        {"p999_ns", static_cast<double>(p.p999_ns)},
        {"max_ns", static_cast<double>(p.max_ns)}};
    for (const auto& [field, value] : fields) print[key + field] = value;
  }
}

bool grade_scenario(Outcome& outcome,
                    const tamp::chaos::ScenarioResult& result) {
  if (result.report.find("metrics-conservation:") != std::string::npos ||
      result.report.find("parallel-runner:") != std::string::npos) {
    outcome.error(result.name + ": " + result.report);
  }
  return result.violation_count == 0;
}

}  // namespace perfbench
