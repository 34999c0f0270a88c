// The benchmark's workloads and the report they fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "speed.hpp"
#include "tracer.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the attempted/failed operation counts, whether
/// every check held, and the metrics of both channels.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;  ///< whole rounds of the operation list run
  std::vector<std::string> problems;  ///< check failures, one line each
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void problem(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
  /// Records a check result (empty = passed).
  void check(const std::string& what, const std::string& why) {
    if (!why.empty()) problem(what + ": " + why);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Builds a §6.1-style world inside a "world_build" span whose children
/// are the builder's own phase timings.
std::unique_ptr<spider::workload::Scenario> build_world(
    const spider::workload::SimScenarioConfig& config, Tracer& tracer,
    const std::string& span_name = "world_build");

/// Adds the world builder's phase timings as per-layer metrics.
void report_build_timings(
    const spider::workload::Scenario::BuildTimings& timings, Report& report);

/// compose-exact / compose-large: one request composed at a time.
Report run_compose(const Options& options, SetupTimer& setup, Tracer& tracer);

/// serve-churn: open-loop TrafficDriver serving with churn.
Report run_serve(const Options& options, SetupTimer& setup, Tracer& tracer);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
