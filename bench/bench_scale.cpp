// Large-N scaling sweep — peers × request depth, far beyond the paper's
// figures (Klein et al.'s scalable-composition line of work motivates
// validating at these sizes).
//
// Each peer count is one isolated campaign cell (own scenario, engines,
// RNG streams derived from the seed) run --jobs at a time; within a cell
// the request-depth sweep reuses the scenario with a fresh BCP engine and
// a per-depth RNG stream, so every row is byte-identical at any --jobs.
// Route caches are capped (SimScenarioConfig::{router,route}_cache_limit)
// — cached shortest-path state is the only O(N²) memory, and capping it
// is what makes the 50k-peer cell feasible at all.
//
// Output:
//  * stdout: deterministic columns only (probe/message counts, arena
//    peaks, estimator error stats) — safe to byte-diff across runs and
//    --jobs values;
//  * BENCH_scale.json (--json-out): the same rows plus wall-clock timings
//    (scenario build, compose throughput), the peak-RSS proxy in bytes
//    (arena high-water mark × sizeof(PathSegment)), and — for --xl runs —
//    the process VmHWM and its budget.
//
// --xl tier (§5h): half-million-peer worlds built through the landmark
// estimator (from_topology_estimated + overlay landmarks), with hard
// RSS / wall-clock budgets asserted at exit; add --full to extend to one
// million peers. Estimator-on rows report the exact-vs-estimated delay
// error over a deterministic sample of peer pairs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/procstat.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::size_t peers = 0;
  std::size_t ip_nodes = 0;
  std::size_t depth = 0;
  std::size_t requests = 0;
  bool estimator = false;
  double success_ratio = 0.0;
  std::uint64_t probes_spawned = 0;
  std::uint64_t probe_messages = 0;
  std::uint64_t prefix_nodes_shared = 0;
  std::uint64_t probe_bytes_copied = 0;
  double virtual_setup_ms_mean = 0.0;
  std::uint64_t arena_peak_segments = 0;
  std::uint64_t arena_segments_allocated = 0;
  std::uint64_t arena_freelist_reused = 0;
  // Estimator error sample (deterministic; zero when estimator off).
  double est_err_mean = 0.0;   ///< mean relative (est - exact) / exact
  double est_err_max = 0.0;
  std::uint64_t est_bound_violations = 0;  ///< must stay 0: soundness
  // Wall-clock (JSON only — nondeterministic).
  double scenario_build_ms = 0.0;
  double compose_wall_ms = 0.0;
  // Per-phase build wall-clock (JSON only; constant across a cell's rows).
  workload::Scenario::BuildTimings build;
  // VmHWM snapshots bracketing this row's cell (before the scenario
  // build / after the cell's last row). Their clamped delta attributes
  // the high-water growth to the cell — valid only when cells run one
  // at a time (see the budget check).
  std::uint64_t vm_hwm_before = 0;
  std::uint64_t vm_hwm_after = 0;
};

/// Exact-vs-estimated delay error over a deterministic hashed sample of
/// peer pairs: 16 sources (16 lazy overlay Dijkstras) × 16 destinations.
/// Bound violations — an estimate below the exact delay or a lower bound
/// above it — indicate a broken triangulation and must stay zero.
void sample_estimator_error(overlay::OverlayNetwork& ov, std::uint64_t seed,
                            Row* row) {
  const std::size_t n = ov.peer_count();
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto src =
        overlay::PeerId(util::hash_values(seed, 0xe57u, i) % n);
    for (std::size_t j = 0; j < 16; ++j) {
      const auto dst =
          overlay::PeerId(util::hash_values(seed, 0xe57u, i, j) % n);
      if (src == dst) continue;
      const double exact = ov.delay_ms(src, dst);
      const double est = ov.estimated_delay_ms(src, dst);
      const double lower = ov.estimator()->lower_bound_ms(src, dst);
      if (!(exact < std::numeric_limits<double>::infinity())) continue;
      if (est + 1e-9 < exact || lower > exact + 1e-9) {
        ++row->est_bound_violations;
        continue;
      }
      if (exact <= 0.0) continue;
      const double rel = (est - exact) / exact;
      sum += rel;
      row->est_err_max = std::max(row->est_err_max, rel);
      ++count;
    }
  }
  if (count > 0) row->est_err_mean = sum / double(count);
}

/// Hard --xl budgets: the sweep fails (non-zero exit) if the process
/// exceeds them. Peak RSS covers every cell that ran in this process.
struct XlBudget {
  std::uint64_t rss_bytes = 0;
  double wall_ms = 0.0;
};

XlBudget xl_budget_for(std::size_t max_peers, std::size_t scale) {
  // Measured on the dev container (1 core), 500k peers / 1M IP nodes:
  // VmHWM ≈ 4.0 GB; serial build ≈ 4 min with bulk Pastry loading (the
  // routed-join build it replaced took ≈ 6; --build-jobs divides the
  // DHT/deploy/overlay phases further), depth-2 compose ≈ 4 min,
  // depth-4 compose ≈ 15 min (~23 min total). Budgets leave ~2×
  // headroom for slower CI runners; the 1M --full cell is extrapolated.
  if (max_peers > 500000) return XlBudget{std::uint64_t(12) << 30, 1.08e7};
  if (scale == 0) return XlBudget{std::uint64_t(6) << 30, 1.2e6};
  return XlBudget{std::uint64_t(6) << 30, 2.4e6};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out = "BENCH_scale.json";
  bool xl = false;
  std::size_t build_jobs = 1;
  const BenchArgs args =
      parse_args(argc, argv,
                 {{"--json-out", &json_out}, {"--xl", &xl},
                  {"--build-jobs", &build_jobs}});

  const std::vector<std::size_t> peer_counts =
      xl ? (args.scale == 2 ? std::vector<std::size_t>{500000, 1000000}
                            : std::vector<std::size_t>{500000})
      : args.scale == 0 ? std::vector<std::size_t>{1000, 2000}
      : args.scale == 2 ? std::vector<std::size_t>{1000, 5000, 10000, 20000,
                                                   50000}
                        : std::vector<std::size_t>{1000, 5000, 10000};
  const std::vector<std::size_t> depths =
      xl                ? (args.scale == 0 ? std::vector<std::size_t>{2}
                                           : std::vector<std::size_t>{2, 4})
      : args.scale == 0 ? std::vector<std::size_t>{2, 4, 6}
                        : std::vector<std::size_t>{2, 4, 6, 8};
  const std::size_t requests_per_row = xl ? 8 : args.scale == 0 ? 20 : 30;
  const auto sweep_t0 = std::chrono::steady_clock::now();

  std::printf("Scaling sweep: peers x request depth, %zu requests per row, "
              "seed=%llu, jobs=%zu, build-jobs=%zu\n",
              requests_per_row, (unsigned long long)args.seed, args.jobs,
              build_jobs);
  std::printf("(full tier sweeps to 50k peers and takes tens of minutes; "
              "wall-clock columns are written to %s)\n\n",
              json_out.c_str());

  std::vector<std::vector<Row>> cells(peer_counts.size());
  std::vector<obs::MetricsRegistry> cell_metrics(peer_counts.size());
  const bool with_metrics = !args.metrics_out.empty();

  util::parallel_for_each(args.jobs, peer_counts.size(), [&](std::size_t ci) {
    const std::size_t peers = peer_counts[ci];
    workload::SimScenarioConfig config;
    config.seed = util::hash_values(args.seed, peers);
    // Keep the paper's sparse-overlay character while growing N: twice as
    // many IP nodes as peers (the §6.1 testbed is 10k/1k).
    config.ip_nodes = std::max<std::size_t>(2 * peers, 4000);
    config.peers = peers;
    // Cap the only O(N²) state. The IP-router cap keeps the overlay
    // build at one resident tree per in-flight source; the overlay cap
    // bounds route memory during probing. Results are unaffected.
    config.router_cache_limit = xl ? 4 : 8;
    config.route_cache_limit = xl ? 16 : 64;
    config.build_jobs = build_jobs;
    if (xl) {
      // Million-peer worlds: landmark-estimated construction and bounded
      // path materialization (§5h). Exact routes stay exact — only their
      // caching is capped.
      config.use_latency_estimator = true;
      config.landmark_count = 16;
      config.route_path_cache_limit = std::size_t(1) << 14;
    }

    const std::uint64_t cell_hwm_before = util::vm_hwm_bytes();
    const auto build_t0 = std::chrono::steady_clock::now();
    auto s = workload::build_sim_scenario(config);
    const double build_ms = wall_ms_since(build_t0);

    for (std::size_t depth : depths) {
      Row row;
      row.peers = peers;
      row.ip_nodes = config.ip_nodes;
      row.depth = depth;
      row.requests = requests_per_row;
      row.estimator = config.use_latency_estimator;
      row.scenario_build_ms = build_ms;
      row.build = s->build_timings;
      row.vm_hwm_before = cell_hwm_before;

      // Per-row request stream: rows are independent of execution order.
      s->rng.reseed(util::hash_values(args.seed, peers, depth));
      workload::RequestProfile profile;
      profile.min_functions = depth;
      profile.max_functions = depth;
      profile.dag_probability = 0.0;  // linear chains: depth == functions
      if (xl) {
        // Estimated worlds carry through-landmark link delays (admissible
        // but stretched vs the exact IP path) and a far larger diameter;
        // the paper-scale 80 ms/hop budget rejects nearly everything at
        // 500k peers, leaving probes nothing to do. 3× keeps the rows
        // exercising real compositions (8/8 at 2k–10k calibration).
        profile.per_hop_delay_budget_ms = 240.0;
      }

      core::BcpConfig bcp_config;
      bcp_config.probe_timeout_ms = 60000.0;
      core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                          bcp_config);
      if (with_metrics) bcp.set_observability(&cell_metrics[ci], nullptr);

      RatioCounter success;
      SampleStats setup;
      const auto compose_t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < requests_per_row; ++i) {
        auto gen = workload::sample_request(*s, profile);
        core::ComposeResult r = bcp.compose(gen.request, s->rng);
        success.record(r.success);
        for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
        row.probes_spawned += r.stats.probes_spawned;
        row.probe_messages += r.stats.probe_messages;
        row.prefix_nodes_shared += r.stats.prefix_nodes_shared;
        row.probe_bytes_copied += r.stats.probe_bytes_copied;
        if (r.success) setup.add(r.stats.setup_time_ms);
      }
      row.compose_wall_ms = wall_ms_since(compose_t0);
      row.success_ratio = success.ratio();
      row.virtual_setup_ms_mean = setup.mean();
      row.arena_peak_segments = bcp.arena_totals().peak_live_segments;
      row.arena_segments_allocated = bcp.arena_totals().segments_allocated;
      row.arena_freelist_reused = bcp.arena_totals().freelist_reused;
      if (config.use_latency_estimator) {
        sample_estimator_error(s->deployment->overlay(),
                               util::hash_values(args.seed, peers, depth),
                               &row);
      }
      row.vm_hwm_after = util::vm_hwm_bytes();
      cells[ci].push_back(row);
    }
  });

  std::vector<std::string> columns{"peers", "depth", "req", "success",
                                   "probes", "messages", "shared_nodes",
                                   "copied_bytes", "arena_peak"};
  if (xl) {
    columns.insert(columns.end(),
                   {"est_err_mean", "est_err_max", "bound_violations"});
  }
  Table table(columns);
  for (const auto& cell : cells) {
    for (const Row& row : cell) {
      std::vector<std::string> vals{
          std::to_string(row.peers), std::to_string(row.depth),
          std::to_string(row.requests), fmt(row.success_ratio, 2),
          std::to_string(row.probes_spawned),
          std::to_string(row.probe_messages),
          std::to_string(row.prefix_nodes_shared),
          std::to_string(row.probe_bytes_copied),
          std::to_string(row.arena_peak_segments)};
      if (xl) {
        vals.push_back(fmt(row.est_err_mean, 3));
        vals.push_back(fmt(row.est_err_max, 3));
        vals.push_back(std::to_string(row.est_bound_violations));
      }
      table.add_row(vals);
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: probe/message counts are governed by beta, not N — "
      "they stay near-flat as peers grow; per-spawn copied bytes are "
      "constant in depth (shared prefixes); the arena peak tracks "
      "beta x depth, not peers.\n");

  FILE* jf = std::fopen(json_out.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "scale: failed to write %s\n", json_out.c_str());
    return 1;
  }
  const std::uint64_t rss = util::vm_hwm_bytes();
  const double sweep_wall_ms = wall_ms_since(sweep_t0);
  const XlBudget budget = xl_budget_for(peer_counts.back(), args.scale);
  std::fprintf(jf, "{\n  \"bench\": \"scale\",\n  \"seed\": %llu,\n"
               "  \"jobs\": %zu,\n  \"build_jobs\": %zu,\n"
               "  \"path_segment_bytes\": %zu,\n",
               (unsigned long long)args.seed, args.jobs, build_jobs,
               sizeof(core::PathSegment));
  std::fprintf(jf, "  \"vm_hwm_bytes\": %llu,\n  \"sweep_wall_ms\": %.1f,\n",
               (unsigned long long)rss, sweep_wall_ms);
  if (xl) {
    std::fprintf(jf,
                 "  \"xl_budget\": {\"rss_bytes\": %llu, \"wall_ms\": %.1f},\n",
                 (unsigned long long)budget.rss_bytes, budget.wall_ms);
  }
  std::fprintf(jf, "  \"rows\": [\n");
  bool first = true;
  for (const auto& cell : cells) {
    for (const Row& row : cell) {
      std::fprintf(
          jf,
          "%s    {\"peers\": %zu, \"ip_nodes\": %zu, \"depth\": %zu, "
          "\"requests\": %zu, \"success_ratio\": %.4f, "
          "\"probes_spawned\": %llu, \"probe_messages\": %llu, "
          "\"prefix_nodes_shared\": %llu, \"probe_bytes_copied\": %llu, "
          "\"virtual_setup_ms_mean\": %.3f, \"arena_peak_segments\": %llu, "
          "\"arena_segments_allocated\": %llu, \"arena_freelist_reused\": "
          "%llu, \"arena_peak_bytes\": %llu, \"estimator\": %s, "
          "\"est_err_mean\": %.4f, \"est_err_max\": %.4f, "
          "\"est_bound_violations\": %llu, \"scenario_build_ms\": %.3f, "
          "\"build_topology_ms\": %.3f, \"build_overlay_ms\": %.3f, "
          "\"build_estimator_ms\": %.3f, \"build_dht_ms\": %.3f, "
          "\"build_deploy_ms\": %.3f, \"vm_hwm_before_bytes\": %llu, "
          "\"vm_hwm_after_bytes\": %llu, \"vm_hwm_attributed_bytes\": %llu, "
          "\"compose_wall_ms\": %.3f}",
          first ? "" : ",\n", row.peers, row.ip_nodes, row.depth, row.requests,
          row.success_ratio, (unsigned long long)row.probes_spawned,
          (unsigned long long)row.probe_messages,
          (unsigned long long)row.prefix_nodes_shared,
          (unsigned long long)row.probe_bytes_copied,
          row.virtual_setup_ms_mean,
          (unsigned long long)row.arena_peak_segments,
          (unsigned long long)row.arena_segments_allocated,
          (unsigned long long)row.arena_freelist_reused,
          (unsigned long long)(row.arena_peak_segments *
                               sizeof(core::PathSegment)),
          row.estimator ? "true" : "false", row.est_err_mean, row.est_err_max,
          (unsigned long long)row.est_bound_violations,
          row.scenario_build_ms, row.build.topology_ms, row.build.overlay_ms,
          row.build.estimator_ms, row.build.dht_ms, row.build.deploy_ms,
          (unsigned long long)row.vm_hwm_before,
          (unsigned long long)row.vm_hwm_after,
          (unsigned long long)util::attributed_hwm_delta(row.vm_hwm_before,
                                                         row.vm_hwm_after),
          row.compose_wall_ms);
      first = false;
    }
  }
  std::fprintf(jf, "\n  ]\n}\n");
  std::fclose(jf);
  std::printf("scale: wrote %s\n", json_out.c_str());

  if (xl) {
    bool violations = false;
    for (const auto& cell : cells) {
      for (const Row& row : cell) {
        if (row.est_bound_violations > 0) violations = true;
      }
    }
    if (violations) {
      std::fprintf(stderr,
                   "scale: FAIL — estimator bound violations (see rows)\n");
      return 1;
    }
    // Budgeted RSS: attribute each cell its own high-water growth (delta
    // of the snapshots bracketing it) rather than charging it the whole
    // process mark, which bakes in whatever ran before the cell — the old
    // check flagged a budgeted cell for a peak an earlier, unbudgeted
    // cell set. Deltas of concurrent cells contaminate each other, so the
    // attribution only applies when cells ran one at a time.
    const bool cells_serial = args.jobs <= 1 || peer_counts.size() == 1;
    std::uint64_t budgeted_rss = rss;
    if (cells_serial) {
      budgeted_rss = 0;
      for (const auto& cell : cells) {
        for (const Row& row : cell) {
          budgeted_rss = std::max(
              budgeted_rss,
              util::attributed_hwm_delta(row.vm_hwm_before, row.vm_hwm_after));
        }
      }
    }
    if (budgeted_rss > budget.rss_bytes) {
      std::fprintf(stderr,
                   "scale: FAIL — peak RSS %.2f GB exceeds the %.2f GB "
                   "--xl budget\n",
                   double(budgeted_rss) / double(1u << 30),
                   double(budget.rss_bytes) / double(1u << 30));
      return 1;
    }
    if (sweep_wall_ms > budget.wall_ms) {
      std::fprintf(stderr,
                   "scale: FAIL — sweep took %.0f s, --xl budget is %.0f s\n",
                   sweep_wall_ms / 1000.0, budget.wall_ms / 1000.0);
      return 1;
    }
    std::printf("scale: --xl budgets OK\n");
  }

  obs::MetricsRegistry metrics;
  if (with_metrics) {
    for (const auto& m : cell_metrics) metrics.merge(m);
  }
  maybe_write_metrics(args, metrics);
  return 0;
}
