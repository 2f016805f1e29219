// Measurement plumbing shared by the three benchmark workloads: host
// clocks and resource usage, nearest-rank statistics, the span recorder of
// the traced run, counter snapshots of the program's MetricsRegistry, and
// the named metric list a workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
// User + system CPU time of the whole process (all threads), seconds.
double process_cpu_s();
// User + system CPU time of the calling thread, seconds.
double thread_cpu_s();
// High-water resident set size of the process, MiB.
double peak_rss_mb();

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- spans -------------------------------------------------------------------

// In-memory spans recorded by the benchmark around each call it makes into
// the program. Spans may be opened from several threads (the chaos grid's
// workers); each carries its parent's id, and a span's self time is its
// duration minus the union of its children's intervals. Disabled recorders
// (untraced runs) keep nothing.
class Spans {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit Spans(bool enabled) : enabled_(enabled) {}

  int64_t begin(std::string_view name, int64_t parent);
  void end(int64_t id);

  // Writes every span plus a per-name summary (count, total and self
  // seconds) as one JSON document. Returns false if the file cannot be
  // written.
  bool write_json(const std::string& path, const std::string& workload,
                  uint64_t seed) const;

 private:
  struct Span {
    std::string name;
    int64_t parent = kNoParent;
    double start_s = 0;
    double end_s = -1;
  };
  std::vector<double> self_times() const;

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span. Without an explicit parent it nests under the innermost span
// open on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, std::string_view name);
  ScopedSpan(Spans& spans, std::string_view name, int64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Spans& spans_;
  int64_t id_;
  int64_t saved_current_;
};

// --- registry counters -------------------------------------------------------

// Counter totals keyed "<protocol>.<name>" (e.g. "net.tx_messages",
// "hier.digests_sent"). A metric's node-less aggregate is used when the
// registry has one, else the sum over nodes. Zero counters are omitted so
// snapshots from to_json() and from a live registry compare equal.
using Counters = std::map<std::string, uint64_t>;

Counters counters_of(const tamp::obs::MetricsRegistry& registry);
// Parses MetricsRegistry::to_json() (ScenarioResult::metrics_json).
Counters counters_of_json(const std::string& metrics_json);
void accumulate(Counters& into, const Counters& from);
uint64_t value_of(const Counters& counters, const std::string& key);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run hands back to main(): every metric it measured,
// the correctness verdict, and the operation tally for the result line.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // correctness / determinism failures
  uint64_t attempted = 0;           // timed workload operations
  uint64_t failed = 0;              // operations that broke a check
  std::vector<double> repetition_walls;  // wall_s of each timed repetition

  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  void error(std::string what) { errors.push_back(std::move(what)); }
};

// Every deterministic value of one repetition (simulated times, counters,
// request tallies). Two repetitions of one seed must produce equal
// fingerprints; a difference is reported as a determinism error.
using Fingerprint = std::map<std::string, double>;
void fingerprint_counters(Fingerprint& print, const Counters& counters);
void check_same(Outcome& outcome, const std::string& what,
                const Fingerprint& first, const Fingerprint& again);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its span dump
};

// Runs `rep` (which returns its own wall seconds) at least once, and again
// while one more repetition as long as the longest so far still fits into
// `seconds` of wall time. Returns the number of repetitions.
template <class Rep>
int repeat_within(double seconds, Rep rep) {
  const Clock::time_point start = Clock::now();
  double longest = 0;
  int reps = 0;
  do {
    const double took = rep();
    longest = took > longest ? took : longest;
    ++reps;
  } while (seconds_since(start) + longest <= seconds);
  return reps;
}

// Runs fn(k) for every k in [0, copies) at once, one thread each, and joins
// them all. Returns one entry per copy: empty, or the message of the
// exception that escaped fn(k).
std::vector<std::string> run_copies(size_t copies,
                                    const std::function<void(size_t)>& fn);

// Exact nanosecond gaps, kept as an evenly strided subsample (every 2^k-th
// gap) once there are more than kCapacity of them, for per-event timings
// too numerous to keep one by one.
class GapSampler {
 public:
  void add(uint64_t ns);
  double percentile(double q) const;

 private:
  static constexpr size_t kCapacity = size_t{1} << 20;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
  std::vector<double> kept_;
};

}  // namespace perfbench
