// The repository benchmark binary.
//
//   perfbench --workload <slo-flap-192|scale-digest-500|chaos-grid-12>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints every measured metric as "name = value unit", then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Exits 1 when a correctness or determinism check fails, 2 on bad flags.
// perfbench/run.py builds this binary and is the entry point to use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.h"
#include "report.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               problem);
  return 2;
}

bool parse(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, &options)) return usage("bad arguments");

  Outcome outcome;
  if (options.workload == "slo-flap-192") {
    outcome = run_slo_flap(options);
  } else if (options.workload == "scale-digest-500") {
    outcome = run_scale_digest(options);
  } else if (options.workload == "chaos-grid-12") {
    outcome = run_chaos_grid(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  std::printf("perfbench %s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("  repetitions:");
  for (double wall : outcome.repetition_walls) std::printf(" %.3fs", wall);
  std::printf("\n");
  for (const Metric& metric : outcome.metrics) {
    std::printf("  %-40s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  const std::vector<MetricSpec>& selected =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{";
  for (const MetricSpec& spec : selected) {
    const Metric* metric = outcome.find(spec.name);
    // A per-layer metric of a layer this workload does not reach reads 0.
    double value = 0;
    if (metric != nullptr) {
      value = metric->value;
    } else if (!options.trace) {
      outcome.error("end-to-end metric " + spec.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      outcome.error("metric " + spec.name + " is not finite");
      value = 0;
    }
    if (metric != nullptr && metric->unit != spec.unit) {
      outcome.error("metric " + spec.name + " measured in " + metric->unit +
                    ", declared in " + spec.unit);
    }
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", spec.name.c_str(), value,
                  spec.unit.c_str());
    json += buffer;
  }
  json += "}";

  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = outcome.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
              " \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
