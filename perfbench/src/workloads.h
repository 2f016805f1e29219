// The benchmark's three workloads. Each runs its timed repetitions for
// about options.seconds of wall time, checks the program's outputs, and —
// when options.trace is set — adds the traced repetition, the layer probes
// and the span dump. README.md records why each workload exists.
#pragma once

#include "measure.h"

namespace perfbench {

Outcome run_slo_flap(const Options& options);
Outcome run_scale_digest(const Options& options);
Outcome run_chaos_grid(const Options& options);

}  // namespace perfbench
