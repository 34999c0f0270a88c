// SpiderNet wall-clock benchmark: one command, three workloads.
//
//   perfbench --workload <compose-exact|compose-large|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end channel; with --trace 1
// the per-layer channel (spans are then recorded and written to
// traces/<workload>-seed<n>.json beside the binary). Unknown flags and
// missing required flags are errors.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>

#include "checks.hpp"
#include "util/procstat.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The per-layer channel's full name list: every workload prints all of
/// them (0 where the workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"net.topology_build_ms", "ms"},
    {"net.landmark_build_ms", "ms"},
    {"overlay.build_ms", "ms"},
    {"dht.build_ms", "ms"},
    {"discovery.register_ms", "ms"},
    {"overlay.community_build_ms", "ms"},
    {"compose.request_ms_p95", "ms"},
    {"overlay.route_trees_per_request", "count"},
    {"overlay.route_trees_per_request_replay", "count"},
    {"overlay.route_tree_ms_p50", "ms"},
    {"overlay.route_paths_per_request", "count"},
    {"discovery.lookup_us_p50", "us"},
    {"discovery.messages_per_request", "count"},
    {"bcp.probes_spawned_per_request", "count"},
    {"bcp.useful_probe_ratio", "ratio"},
    {"bcp.candidates_merged_per_request", "count"},
    {"bcp.qualified_per_request", "count"},
    {"bcp.hold_reuse_ratio", "ratio"},
    {"bcp.coarse_probes_per_request", "count"},
    {"bcp.arena_peak_segments", "count"},
    {"bcp.virtual_setup_ms_p95", "ms"},
    {"evaluator.evaluate_us_p50", "us"},
    {"alloc.holds_per_request", "count"},
    {"alloc.utilization_peak", "ratio"},
    {"alloc.lease_renewals", "count"},
    {"session.on_peer_failed_ms_p50", "ms"},
    {"deployment.revive_ms_p50", "ms"},
    {"deployment.kill_ms_p50", "ms"},
    {"session.backups_mean", "count"},
    {"session.backup_switches", "count"},
    {"session.reactive_recoveries", "count"},
    {"session.losses", "count"},
    {"sim.events", "count"},
    {"sim.wall_us_per_event", "us"},
    {"sim.pending_peak", "count"},
    {"traffic.tick_wall_ms_p50", "ms"},
    {"wall.setup_s", "s"},
    {"wall.request_ms_p50", "ms"},
    {"wall.requests_per_s", "1/s"},
    {"speed.reference_ms_p50", "ms"},
    {"speed.setup_reference_ms", "ms"},
    {"trace.request_ref_ms_p50", "ms"},
    {"trace.requests_per_ref_s", "1/s"},
};

/// Span names whose self time the traced run reports.
const std::vector<std::string> kSelfTimeSpans = {
    "world_build",   "world_build.topology", "world_build.overlay",
    "world_build.estimator", "world_build.dht", "world_build.deploy",
    "world_build.communities", "world_rebuild", "requests_generate",
    "compose",       "check",                "probe.route",
    "probe.discover", "probe.evaluate",      "check.partition",
    "traffic.run",   "churn.kill",           "churn.on_peer_failed",
    "churn.revive",
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<compose-exact|compose-large|serve-churn> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

/// Parses the command line; returns false for --self-test.
bool parse_options(int argc, char** argv, Options* out) {
  std::map<std::string, std::string> values;
  bool self_test_mode = false;
  const std::set<std::string> valued = {"--workload", "--seed", "--seconds",
                                        "--trace"};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_mode = true;
    } else if (valued.count(flag) != 0) {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      if (!values.emplace(flag, argv[++i]).second) {
        usage_error(flag + " given twice");
      }
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (self_test_mode) {
    if (!values.empty()) usage_error("--self-test takes no other flags");
    return false;
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) {
      usage_error(std::string(required) + " is required");
    }
  }
  out->workload = values["--workload"];
  if (out->workload != "compose-exact" && out->workload != "compose-large" &&
      out->workload != "serve-churn") {
    usage_error("unknown workload '" + out->workload + "'");
  }
  out->seed = parse_u64("--seed", values["--seed"].c_str());
  const std::uint64_t seconds = parse_u64("--seconds", values["--seconds"].c_str());
  if (seconds < 1 || seconds > 600) usage_error("--seconds must be in [1, 600]");
  out->seconds = double(seconds);
  const std::string trace = values["--trace"];
  if (trace != "0" && trace != "1") usage_error("--trace must be 0 or 1");
  out->trace = trace == "1";
  return true;
}

void print_result(const Report& rep, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              (unsigned long long)rep.attempted,
              (unsigned long long)rep.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

std::unique_ptr<spider::workload::Scenario> build_world(
    const spider::workload::SimScenarioConfig& config, Tracer& tracer,
    const std::string& span_name) {
  auto span = tracer.span(span_name);
  const double start = tracer.since_epoch(Clock::now());
  auto world = spider::workload::build_sim_scenario(config);
  // The builder runs its phases back to back; lay them out in order.
  const auto& t = world->build_timings;
  double at = start;
  for (const auto& [name, ms] :
       {std::pair<const char*, double>{"topology", t.topology_ms},
        {"overlay", t.overlay_ms},
        {"estimator", t.estimator_ms},
        {"dht", t.dht_ms},
        {"deploy", t.deploy_ms},
        {"communities", t.communities_ms}}) {
    if (ms <= 0.0) continue;
    tracer.add_child(span_name + "." + name, at, at + ms);
    at += ms;
  }
  return world;
}

void report_build_timings(
    const spider::workload::Scenario::BuildTimings& t, Report& report) {
  report.layer("net.topology_build_ms", t.topology_ms, "ms");
  report.layer("net.landmark_build_ms", t.estimator_ms, "ms");
  report.layer("overlay.build_ms", t.overlay_ms, "ms");
  report.layer("dht.build_ms", t.dht_ms, "ms");
  report.layer("discovery.register_ms", t.deploy_ms, "ms");
  report.layer("overlay.community_build_ms", t.communities_ms, "ms");
}

double peak_rss_mb() {
  return double(spider::util::vm_hwm_bytes()) / (1024.0 * 1024.0);
}

bool Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"counters\": {",
                 i == 0 ? "" : ",\n", s.name.c_str(), (unsigned long long)s.id,
                 (unsigned long long)s.parent, (unsigned long long)s.request,
                 s.start_ms, s.end_ms);
    for (std::size_t c = 0; c < s.counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                   s.counters[c].first.c_str(), s.counters[c].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n], \"self_ms\": {");
  bool first = true;
  for (const auto& [name, ms] : self_ms_by_name()) {
    std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Options options;
  if (!parse_options(argc, argv, &options)) {
    const std::vector<std::string> problems = self_test(/*verbose=*/true);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "self-test: PROBLEM %s\n", p.c_str());
    }
    std::printf("self-test: %s\n", problems.empty()
                                       ? "every check failed on corrupted input"
                                       : "FAILED");
    return problems.empty() ? 0 : 1;
  }

  Tracer tracer(options.trace, process_start);
  SetupTimer setup(process_start);
  Report rep = options.workload == "serve-churn"
                   ? run_serve(options, setup, tracer)
                   : run_compose(options, setup, tracer);

  // Every run re-proves that its checks can fail.
  for (const std::string& p : self_test(/*verbose=*/false)) {
    rep.problem("self-test: " + p);
  }

  for (const std::string& p : rep.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", p.c_str());
  }
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu rounds=%zu "
               "attempted=%llu failed=%llu correct=%s\n",
               options.workload.c_str(), (unsigned long long)options.seed,
               rep.rounds, (unsigned long long)rep.attempted,
               (unsigned long long)rep.failed, rep.correct ? "true" : "false");
  for (const Metric& m : rep.end_to_end) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }

  if (!options.trace) {
    for (const Metric& m : rep.per_layer) {
      std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    print_result(rep, rep.end_to_end);
    return 0;
  }

  // Traced run: the per-layer channel, with every listed name present.
  std::map<std::string, double> have;
  for (const Metric& m : rep.per_layer) {
    have[m.name] = m.value;
    const bool listed = std::any_of(
        kPerLayer.begin(), kPerLayer.end(),
        [&](const auto& entry) { return entry.first == m.name; });
    if (!listed) rep.problem("per-layer metric not in the listed set: " + m.name);
  }
  for (const Metric& m : rep.end_to_end) {
    if (m.name == "request_ref_ms_p50") have["trace.request_ref_ms_p50"] = m.value;
    if (m.name == "requests_per_ref_s") have["trace.requests_per_ref_s"] = m.value;
  }
  std::vector<Metric> layer;
  for (const auto& [name, unit] : kPerLayer) {
    layer.push_back({name, have.count(name) != 0 ? have[name] : 0.0, unit});
  }
  const std::map<std::string, double> self_ms = tracer.self_ms_by_name();
  for (const std::string& name : kSelfTimeSpans) {
    const auto it = self_ms.find(name);
    layer.push_back(
        {"span." + name + ".self_ms", it == self_ms.end() ? 0.0 : it->second,
         "ms"});
  }
  for (const Metric& m : layer) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  namespace fs = std::filesystem;
  const fs::path traces = fs::absolute(argv[0]).parent_path() / "traces";
  const fs::path out = traces / (options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json");
  std::error_code error;
  fs::create_directories(traces, error);
  if (error || !tracer.write(out.string())) {
    std::fprintf(stderr, "perfbench: failed to write %s\n", out.c_str());
    return 1;
  }
  print_result(rep, layer);
  return 0;
}
