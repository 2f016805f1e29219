// The metric names BENCHMARK.json declares, and the mappings every
// workload shares from program outputs (registry counters, SLO phases,
// scenario verdicts) onto them.
#pragma once

#include <string>
#include <vector>

#include "measure.h"
#include "sim/scenario.h"
#include "workload/workload.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Printed on the result line of an untraced run (--trace 0).
const std::vector<MetricSpec>& end_to_end_metrics();
// Printed on the result line of a traced run (--trace 1). A workload that
// does not reach a layer reports its counts there as 0.
const std::vector<MetricSpec>& per_layer_metrics();

// net.*, protocols.hier.*, protocols.gossip.*, protocols.alltoall.* from a
// registry counter snapshot.
void set_counter_metrics(Outcome& outcome, const Counters& counters);

// Sums SLO phases into one total (percentile fields left unset).
tamp::workload::PhaseSlo sum_phases(
    const std::vector<tamp::workload::PhaseSlo>& phases);
// workload.* request tallies, retry amplification and failure causes.
void set_workload_metrics(Outcome& outcome,
                          const tamp::workload::PhaseSlo& total);
// The SLO accounting identity issued == ok + failed + aborted + unresolved
// on every phase; a violation is a correctness error.
void check_slo_identity(Outcome& outcome,
                        const tamp::chaos::ScenarioResult& result);
// Deterministic values of an SLO report, for the determinism cross-check.
void fingerprint_slo(Fingerprint& print, const std::string& prefix,
                     const std::vector<tamp::workload::PhaseSlo>& phases);

// Splits a scenario's verdict: a failed conservation check or a thrown
// scenario is a correctness error of the benchmark run; an oracle verdict
// is a graded outcome. Returns whether the oracle passed the scenario.
bool grade_scenario(Outcome& outcome,
                    const tamp::chaos::ScenarioResult& result);

}  // namespace perfbench
