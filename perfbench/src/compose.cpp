// compose-exact and compose-large: a fixed, seed-derived list of mixed
// composite requests is composed one after another with
// BcpEngine::compose, holds released after each. The list is replayed in
// whole rounds, at least two and until the run's time is up; every replay
// of a request uses the same RNG stream, so each round repeats the same
// operations.
#include <cmath>

#include "checks.hpp"
#include "core/bcp.hpp"
#include "speed.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using spider::overlay::PeerId;

namespace {

struct ComposeParams {
  spider::workload::SimScenarioConfig world;
  spider::workload::RequestProfile profile;
  spider::core::BcpConfig bcp;
  std::size_t requests = 0;
  // Speed reference: Dijkstras per sample (one sample after each
  // compose), a sample's time at nominal speed, and the smoothing window.
  std::size_t ref_trees = 0;
  double ref_nominal_ms = 0.0;
  std::size_t ref_half_window = 0;
};

ComposeParams params_for(const Options& options) {
  ComposeParams p;
  // The world is the same for every seed, like a fixed dataset; the seed
  // draws the request list and the probes' RNG streams.
  p.world.seed = 0x3c0b;
  p.profile.min_functions = 2;
  p.profile.max_functions = 5;
  // Chains with commutation links only. Diamond DAGs are left out: BCP
  // probes each branch independently and the destination merge needs the
  // branches to agree on the shared fork and join replicas, which they
  // sometimes never do (see the FOUND lines in CHANGES.md), so a diamond
  // fails on some seeds and not others.
  p.profile.dag_probability = 0.0;
  p.profile.commutation_probability = 0.3;
  p.bcp.probe_timeout_ms = 60000.0;
  if (options.workload == "compose-exact") {
    // Exact routing: every overlay link priced by an IP Dijkstra, route
    // caches capped as the scaling sweep caps them (64 overlay sources,
    // below one request's working set of about 40 trees).
    p.world.peers = 2000;
    p.world.ip_nodes = 4000;
    p.world.router_cache_limit = 8;
    p.world.route_cache_limit = 64;
    p.profile.per_hop_delay_budget_ms = 120.0;
    p.requests = 240;
    p.ref_trees = 8;
    p.ref_nominal_ms = 4.0;
    p.ref_half_window = 8;
  } else {
    // Landmark-estimated world ten times larger, with two-tier community
    // BCP; through-landmark link delays need a looser per-hop budget.
    p.world.peers = 20000;
    p.world.ip_nodes = 40000;
    p.world.router_cache_limit = 8;
    p.world.route_cache_limit = 64;
    p.world.use_latency_estimator = true;
    p.world.landmark_count = 16;
    p.world.use_communities = true;
    p.world.community_count = 8;
    p.profile.per_hop_delay_budget_ms = 400.0;
    // One request size (four-function chains): at 20k peers a compose
    // costs ~0.5 s, so a run holds few requests, and a median over few
    // requests of mixed sizes swings with the sizes.
    p.profile.min_functions = 4;
    p.profile.max_functions = 4;
    p.bcp.probing_budget = 28;
    p.requests = 32;
    p.ref_trees = 4;
    p.ref_nominal_ms = 20.0;
    p.ref_half_window = 8;
  }
  return p;
}

/// What round 0 saw for one request; later rounds must repeat it.
struct FirstResult {
  bool success = false;
  std::uint64_t probe_messages = 0;
  double delay_ms = 0.0;
  double setup_ms = 0.0;
};

}  // namespace

Report run_compose(const Options& options, SetupTimer& setup,
                   Tracer& tracer) {
  Report rep;
  const ComposeParams p = params_for(options);

  // ---- set-up: world build (+ communities), request list, engine ------
  auto world = build_world(p.world, tracer);
  spider::workload::Scenario& s = *world;
  std::vector<spider::service::CompositeRequest> requests;
  {
    auto span = tracer.span("requests_generate");
    s.rng.reseed(spider::util::hash_values(options.seed, 0x7e9));
    // Equal shares of each request size, interleaved, so the size mix is
    // the same for every seed.
    spider::workload::RequestProfile profile = p.profile;
    const std::size_t sizes = p.profile.max_functions - p.profile.min_functions + 1;
    for (std::size_t i = 0; i < p.requests; ++i) {
      profile.min_functions = profile.max_functions =
          p.profile.min_functions + i % sizes;
      requests.push_back(spider::workload::sample_request(s, profile).request);
    }
  }
  spider::core::BcpEngine bcp(*s.deployment, *s.alloc, *s.evaluator, s.sim,
                              p.bcp);
  if (s.communities != nullptr) {
    bcp.set_communities(s.communities.get(), s.community_index.get());
  }
  const auto [setup_raw_s, setup_s] = setup.finish();
  SpeedReference speed(s.deployment->overlay(), p.ref_trees, p.ref_nominal_ms);

  // ---- measured loop: whole rounds of the request list ----------------
  auto& ov = s.deployment->overlay();
  std::vector<double> compose_ms;
  std::vector<FirstResult> first(p.requests);
  std::vector<std::pair<std::size_t, spider::service::ServiceGraph>> first_graphs;
  spider::core::ComposeStats totals;  // round 0 only
  std::uint64_t trees_round0 = 0, trees_replay = 0, paths_round0 = 0;
  std::size_t rounds = 0;
  double compose_total_ms = 0.0;
  spider::Rng rng;
  const auto measure_start = Clock::now();
  do {
    for (std::size_t i = 0; i < p.requests; ++i) {
      const auto& request = requests[i];
      rng.reseed(spider::util::hash_values(options.seed, 0xc0, i));
      const std::uint64_t trees0 = ov.route_trees_computed();
      const std::uint64_t paths0 = ov.route_paths_materialized();
      spider::core::ComposeResult r;
      double ms = 0.0;
      {
        auto span = tracer.span("compose", i + 1);
        const auto t0 = Clock::now();
        r = bcp.compose(request, rng);
        ms = ms_between(t0, Clock::now());
        span.count("route_trees", double(ov.route_trees_computed() - trees0));
        span.count("probes_spawned", double(r.stats.probes_spawned));
        span.count("probe_messages", double(r.stats.probe_messages));
      }
      const std::uint64_t trees = ov.route_trees_computed() - trees0;
      const std::uint64_t paths = ov.route_paths_materialized() - paths0;
      compose_ms.push_back(ms);
      compose_total_ms += ms;
      ++rep.attempted;

      bool ok = r.success;
      if (rounds == 0) {
        trees_round0 += trees;
        paths_round0 += paths;
        first[i] = {r.success, r.stats.probe_messages,
                    r.success ? r.best.qos.delay_ms() : 0.0,
                    r.stats.setup_time_ms};
        totals.probes_spawned += r.stats.probes_spawned;
        totals.probes_arrived += r.stats.probes_arrived;
        totals.probe_messages += r.stats.probe_messages;
        totals.discovery_messages += r.stats.discovery_messages;
        totals.candidates_merged += r.stats.candidates_merged;
        totals.qualified_found += r.stats.qualified_found;
        totals.holds_acquired += r.stats.holds_acquired;
        totals.holds_reused += r.stats.holds_reused;
        totals.coarse_probes += r.stats.coarse_probes;
        auto check_span = tracer.span("check", i + 1);
        std::string why =
            check_probe_accounting(r.stats, p.bcp.probing_budget);
        if (why.empty() && r.success) {
          why = check_graph(*s.deployment, request, r.best);
        }
        if (why.empty() && r.success) {
          // One hop per request against the reference Dijkstra.
          const auto& hops = r.best.hops;
          const auto& hop = hops[spider::util::hash_values(options.seed, i) %
                                 hops.size()];
          why = check_hop_shortest(ov, hop);
        }
        if (!why.empty()) {
          ok = false;
          rep.problem("request " + std::to_string(i) + ": " + why);
        }
        if (r.success) first_graphs.emplace_back(i, r.best);
      } else {
        trees_replay += trees;
        const FirstResult& f = first[i];
        if (r.success != f.success ||
            r.stats.probe_messages != f.probe_messages ||
            (r.success && r.best.qos.delay_ms() != f.delay_ms)) {
          ok = false;
          rep.problem("request " + std::to_string(i) +
                      ": replay differs from its first compose");
        }
      }
      for (spider::core::HoldId h : r.best_holds) s.alloc->release_hold(h);
      const std::string leak = check_quiesced(*s.alloc);
      if (!leak.empty()) {
        ok = false;
        rep.problem("request " + std::to_string(i) + ": " + leak);
      }
      if (!ok) ++rep.failed;
      speed.sample();
    }
    ++rounds;
    // At least two rounds, so that every run checks its replays.
  } while (rounds < 2 ||
           ms_between(measure_start, Clock::now()) < options.seconds * 1000.0);
  rep.rounds = rounds;

  // ---- direct layer probes (after the measured loop) -------------------
  const std::size_t n = ov.peer_count();
  std::vector<double> route_ms, lookup_us, evaluate_us;
  {
    // Exact route from sources whose tree is not cached, checked against
    // the reference Dijkstra (and, with landmarks, against their bounds).
    auto span = tracer.span("probe.route");
    for (std::size_t k = 0; route_ms.size() < 16 && k < 256; ++k) {
      const auto src = PeerId(spider::util::hash_values(options.seed, 0x5a, k) % n);
      const std::uint64_t trees0 = ov.route_trees_computed();
      const std::vector<double> ref = reference_distances(ov, src);
      for (std::size_t j = 0; j < 8; ++j) {
        const auto dst =
            PeerId(spider::util::hash_values(options.seed, 0x5b, k, j) % n);
        if (dst == src) continue;
        const auto t0 = Clock::now();
        const double delay = ov.route(src, dst)->delay_ms;
        const double ms = ms_between(t0, Clock::now());
        if (j == 0 && ov.route_trees_computed() == trees0 + 1) {
          route_ms.push_back(ms);
        }
        if (std::fabs(delay - ref[dst]) > 1e-6 * std::max(1.0, ref[dst])) {
          rep.problem("route delay differs from the reference Dijkstra");
        }
        if (ov.has_estimator()) {
          rep.check("landmark sample",
                    check_landmark_pair(ov.estimator()->lower_bound_ms(src, dst),
                                        delay, ov.estimated_delay_ms(src, dst)));
        }
      }
    }
  }
  {
    auto span = tracer.span("probe.discover");
    auto& registry = s.deployment->registry();
    for (std::size_t k = 0; k < 32; ++k) {
      const auto from =
          PeerId(spider::util::hash_values(options.seed, 0xd1, k) % n);
      const auto& request = requests[k % requests.size()];
      const auto fn = request.graph.function(
          spider::service::FnNode(k % request.graph.node_count()));
      const auto t0 = Clock::now();
      const spider::discovery::DiscoveryResult found = registry.discover(from, fn);
      lookup_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      rep.check("discovery sample",
                check_discovery(*s.deployment, fn, found.components));
    }
  }
  {
    auto span = tracer.span("probe.evaluate");
    for (std::size_t k = 0; k < first_graphs.size() && k < 32; ++k) {
      const auto& [index, composed] = first_graphs[k];
      spider::service::ServiceGraph graph = composed;
      const auto t0 = Clock::now();
      const bool resolved = s.evaluator->resolve(graph);
      if (resolved) s.evaluator->evaluate(graph, requests[index]);
      evaluate_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      if (!resolved ||
          std::fabs(graph.qos.delay_ms() - composed.qos.delay_ms()) >
              1e-6 * std::max(1.0, graph.qos.delay_ms())) {
        rep.problem("re-evaluated graph delay differs from the composed one");
      }
    }
  }
  if (s.communities != nullptr) {
    auto span = tracer.span("check.partition");
    rep.check("community partition", check_partition(partition_of(*s.communities)));
  }
  rep.check("allocator at end", check_quiesced(*s.alloc));
  if (!(speed.checksum() > 0.0)) rep.problem("speed reference computed nothing");

  // ---- metrics ----------------------------------------------------------
  const double req = double(p.requests);
  std::vector<double> vsetup;
  for (const FirstResult& f : first) {
    if (f.success) vsetup.push_back(f.setup_ms);
  }
  const std::vector<double> ref_ms = normalize(
      compose_ms, speed.samples_ms(), speed.nominal_ms(), p.ref_half_window);
  double ref_total_ms = 0.0;
  for (double ms : ref_ms) ref_total_ms += ms;
  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("request_ref_ms_p50", percentile(ref_ms, 50.0), "ms");
  rep.e2e("requests_per_ref_s", ratio(double(rep.attempted), ref_total_ms / 1000.0),
          "1/s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("virtual_setup_ms_p50", percentile(vsetup, 50.0), "ms");
  rep.e2e("probe_messages_per_request", ratio(double(totals.probe_messages), req),
          "count");

  rep.layer("wall.setup_s", setup_raw_s, "s");
  rep.layer("speed.setup_reference_ms", setup.reference_ms(), "ms");
  report_build_timings(s.build_timings, rep);
  rep.layer("wall.request_ms_p50", percentile(compose_ms, 50.0), "ms");
  rep.layer("wall.requests_per_s",
            ratio(double(rep.attempted), compose_total_ms / 1000.0), "1/s");
  rep.layer("speed.reference_ms_p50", percentile(speed.samples_ms(), 50.0), "ms");
  rep.layer("compose.request_ms_p95", percentile(compose_ms, 95.0), "ms");
  rep.layer("overlay.route_trees_per_request", ratio(double(trees_round0), req),
            "count");
  rep.layer("overlay.route_trees_per_request_replay",
            ratio(double(trees_replay), req * double(rounds - 1)), "count");
  rep.layer("overlay.route_paths_per_request", ratio(double(paths_round0), req),
            "count");
  rep.layer("overlay.route_tree_ms_p50", percentile(route_ms, 50.0), "ms");
  rep.layer("discovery.lookup_us_p50", percentile(lookup_us, 50.0), "us");
  rep.layer("discovery.messages_per_request",
            ratio(double(totals.discovery_messages), req), "count");
  rep.layer("bcp.probes_spawned_per_request",
            ratio(double(totals.probes_spawned), req), "count");
  rep.layer("bcp.useful_probe_ratio",
            ratio(double(totals.probes_arrived), double(totals.probes_spawned)),
            "ratio");
  rep.layer("bcp.candidates_merged_per_request",
            ratio(double(totals.candidates_merged), req), "count");
  rep.layer("bcp.qualified_per_request", ratio(double(totals.qualified_found), req),
            "count");
  rep.layer("bcp.hold_reuse_ratio",
            ratio(double(totals.holds_reused),
                  double(totals.holds_acquired + totals.holds_reused)),
            "ratio");
  rep.layer("bcp.coarse_probes_per_request",
            ratio(double(totals.coarse_probes), req), "count");
  rep.layer("bcp.arena_peak_segments",
            double(bcp.arena_totals().peak_live_segments), "count");
  rep.layer("bcp.virtual_setup_ms_p95", percentile(vsetup, 95.0), "ms");
  rep.layer("evaluator.evaluate_us_p50", percentile(evaluate_us, 50.0), "us");
  rep.layer("alloc.holds_per_request", ratio(double(totals.holds_acquired), req),
            "count");
  return rep;
}

}  // namespace perfbench
