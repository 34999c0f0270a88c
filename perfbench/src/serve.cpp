// serve-churn: open-loop TrafficDriver serving over a few hundred peers
// with leases, periodic audit, γ backups and deterministic kill/revive
// churn. One round builds the (fixed) world afresh and serves the same
// seed-derived arrival script to quiesce, so every round repeats the same
// operations; rounds repeat, at least twice and until the run's time is
// up. Only the first world build is set-up; TrafficDriver::run is what is
// timed.
#include <deque>

#include "checks.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "speed.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using spider::overlay::PeerId;

namespace {

spider::workload::SimScenarioConfig world_config() {
  spider::workload::SimScenarioConfig config;
  // The world is the same for every seed, like a fixed dataset; the seed
  // draws arrival times, request contents, lifetimes and churn victims.
  config.seed = 0x5e7e;
  config.peers = 400;
  config.ip_nodes = 1600;
  config.function_count = 40;  // uniform popularity, ~20 replicas each
  return config;
}

/// One round's outcome (round 0's is the reference later rounds repeat).
struct Round {
  std::uint64_t arrivals = 0;
  std::uint64_t established = 0;
  double run_ms = 0.0;
};

/// Counters read at the boundaries of round 0, for the per-layer channel.
struct LayerCounts {
  std::vector<double> setup_ms;  ///< virtual setup of established requests
  std::uint64_t requests = 0, probe_messages = 0, discovery_messages = 0;
  std::uint64_t probes_spawned = 0, probes_arrived = 0, candidates_merged = 0;
  std::uint64_t qualified = 0, holds_acquired = 0, holds_reused = 0;
  std::uint64_t trees = 0, paths = 0, events = 0;
  std::uint64_t lease_renewals = 0, arena_peak = 0;
  std::size_t pending_peak = 0;
  double util_peak = 0.0, run_ms = 0.0;
  spider::core::SessionStats sessions;
};

std::uint64_t counter(const spider::obs::MetricsRegistry& m,
                      const std::string& name) {
  const spider::obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

Report run_serve(const Options& options, SetupTimer& setup,
                 Tracer& tracer) {
  Report rep;
  const spider::workload::SimScenarioConfig config = world_config();
  auto first_world = build_world(config, tracer);
  const auto build_timings = first_world->build_timings;
  const auto [setup_raw_s, setup_s] = setup.finish();

  {
    // Discovery on the fresh world answers exactly the live replicas.
    auto span = tracer.span("probe.discover");
    auto& d = *first_world->deployment;
    for (std::size_t k = 0; k < 32; ++k) {
      const auto from = PeerId(spider::util::hash_values(options.seed, 0xd1, k) %
                               d.peer_count());
      const auto fn = spider::service::FunctionId(k % config.function_count);
      rep.check("discovery sample",
                check_discovery(d, fn, d.registry().discover(from, fn).components));
    }
  }

  // Speed reference: one sample at each arrival draw, kept out of the
  // arrival gaps; the world is the same every round, so one copy of its
  // overlay serves all rounds.
  constexpr double kRefNominalMs = 0.08;
  SpeedReference speed(first_world->deployment->overlay(), 1, kRefNominalMs);
  std::vector<double> gaps_ms, kill_ms, revive_ms, failed_ms, tick_ms;
  std::vector<double> ref_gaps_ms;
  double ref_run_total_ms = 0.0;
  LayerCounts layer;
  Round reference;
  double run_total_ms = 0.0;
  std::size_t rounds = 0;
  const auto measure_start = Clock::now();
  do {
    std::unique_ptr<spider::workload::Scenario> world =
        rounds == 0 ? std::move(first_world)
                    : build_world(config, tracer, "world_rebuild");
    spider::workload::Scenario& s = *world;
    s.rng.reseed(spider::util::hash_values(options.seed, 0x5eed));
    spider::obs::MetricsRegistry metrics;
    spider::core::BcpEngine bcp(*s.deployment, *s.alloc, *s.evaluator, s.sim);
    bcp.set_observability(&metrics, nullptr);
    spider::core::RecoveryConfig recovery;
    recovery.backup_aggressiveness = 10.0;  // keep γ backups at this scale
    spider::core::SessionManager sessions(*s.deployment, *s.alloc,
                                          *s.evaluator, bcp, s.sim, recovery);
    s.alloc->set_lease_ttl_ms(5000.0);
    spider::core::AllocationManager::AdmissionConfig admission;
    admission.high_water_utilization = 0.9;  // armed, never binding here
    admission.queue_capacity = 64;
    s.alloc->set_admission(admission);

    spider::workload::TrafficDriver::Config traffic;
    traffic.schedule = spider::workload::PhaseSchedule(
        {{"warmup", 10000.0, 4.0, 16.0}, {"steady", 50000.0, 16.0, -1.0}});
    traffic.seed = spider::util::hash_values(options.seed, 0x7aff1c);
    traffic.profile.min_functions = 2;
    traffic.profile.max_functions = 4;
    // Chains only, as in the compose workloads: a diamond DAG can fail to
    // merge at the destination on some seeds and not others.
    traffic.profile.dag_probability = 0.0;
    traffic.lifetime.kind = spider::workload::SessionLifetime::Kind::kExponential;
    traffic.lifetime.mean_ms = 10000.0;
    traffic.maintenance_period_ms = 1000.0;
    traffic.audit_period_ms = 4000.0;
    traffic.queue_timeout_ms = 8000.0;
    traffic.drain_ms = 30000.0;

    // Churn: one victim every 5 ticks, revived 10 ticks later; victims
    // draw from their own stream.
    spider::Rng churn_rng(spider::util::hash_values(options.seed, 0xc4u));
    std::deque<std::pair<PeerId, std::size_t>> downed;
    bool have_tick = false;
    Clock::time_point last_tick;
    traffic.on_maintenance_tick = [&](std::size_t tick) {
      const auto now = Clock::now();
      if (have_tick) tick_ms.push_back(ms_between(last_tick, now));
      have_tick = true;
      last_tick = now;
      const double util = s.alloc->grant_utilization();
      if (util > 1.0 + 1e-9) rep.problem("grant utilization above 1");
      if (rounds == 0) {
        layer.util_peak = std::max(layer.util_peak, util);
        layer.pending_peak = std::max(layer.pending_peak, s.sim.pending());
      }
      while (!downed.empty() && downed.front().second <= tick) {
        auto span = tracer.span("churn.revive");
        const auto t0 = Clock::now();
        s.deployment->revive_peer(downed.front().first);
        revive_ms.push_back(ms_between(t0, Clock::now()));
        downed.pop_front();
      }
      if (tick % 5 != 0) return;
      std::vector<PeerId> live = s.deployment->live_peers();
      if (live.size() < 8) return;
      const PeerId victim = live[churn_rng.next_below(live.size())];
      {
        auto span = tracer.span("churn.kill");
        const auto t0 = Clock::now();
        s.deployment->kill_peer(victim);
        kill_ms.push_back(ms_between(t0, Clock::now()));
      }
      {
        auto span = tracer.span("churn.on_peer_failed");
        const auto t0 = Clock::now();
        sessions.on_peer_failed(victim, s.rng);
        failed_ms.push_back(ms_between(t0, Clock::now()));
      }
      downed.emplace_back(victim, tick + 10);
    };

    auto counting = std::make_unique<CountingArrivals>(
        std::make_unique<spider::workload::PoissonProcess>(traffic.schedule,
                                                           traffic.seed));
    CountingArrivals& arrivals = *counting;
    arrivals.set_between_draws([&speed] { speed.sample(); });
    auto& ov = s.deployment->overlay();
    const std::uint64_t trees0 = ov.route_trees_computed();
    const std::uint64_t paths0 = ov.route_paths_materialized();
    spider::workload::TrafficDriver traffic_driver(
        s, bcp, sessions, std::move(traffic), std::move(counting));
    Round round;
    const std::size_t samples0 = speed.samples_ms().size();
    {
      auto span = tracer.span("traffic.run");
      const auto t0 = Clock::now();
      const spider::workload::TrafficStats& stats = traffic_driver.run();
      round.run_ms = ms_between(t0, Clock::now());
      span.count("arrivals", double(arrivals.count()));
      span.count("events", double(s.sim.events_executed()));
      rep.check("arrival count", check_arrivals(arrivals.count(), stats));
      rep.check("allocator at quiesce", check_quiesced(*s.alloc));
      if (!stats.final_audit.conserved) rep.problem("final audit not conserved");
      round.arrivals = arrivals.count();
      for (const spider::workload::PhaseStats& ps : stats.phases) {
        round.established += ps.established;
        if (rounds == 0) {
          for (double v : ps.setup_ms.samples()) layer.setup_ms.push_back(v);
        }
      }
    }
    // Normalize this round by the reference samples taken during it; the
    // samples' own time is taken out of the run first.
    double ref_sum = 0.0;
    std::size_t ref_count = 0;
    for (std::size_t k = samples0; k < speed.samples_ms().size(); ++k) {
      ref_sum += speed.samples_ms()[k];
      ++ref_count;
    }
    const double scale = ref_count == 0 ? 1.0
                                        : kRefNominalMs / (ref_sum / double(ref_count));
    // Gap i is followed by the sample of draw i + 1. The first gap runs
    // from the initial draw to the first arrival, so it is left out.
    const std::vector<double> round_gaps(arrivals.gaps_ms().begin() + 1,
                                         arrivals.gaps_ms().end());
    const std::vector<double> round_samples(
        speed.samples_ms().begin() + std::ptrdiff_t(samples0) + 2,
        speed.samples_ms().end());
    gaps_ms.insert(gaps_ms.end(), round_gaps.begin(), round_gaps.end());
    for (double ms : normalize(round_gaps, round_samples, kRefNominalMs, 16)) {
      ref_gaps_ms.push_back(ms);
    }
    run_total_ms += round.run_ms;
    ref_run_total_ms += (round.run_ms - ref_sum) * scale;
    rep.attempted += round.arrivals;
    rep.failed += round.arrivals - round.established;
    if (rounds == 0) {
      reference = round;
      layer.requests = counter(metrics, "bcp.requests");
      layer.probe_messages = counter(metrics, "bcp.probe_messages");
      layer.discovery_messages = counter(metrics, "bcp.discovery_messages");
      layer.probes_spawned = counter(metrics, "bcp.probes_spawned");
      layer.probes_arrived = counter(metrics, "bcp.probes_arrived");
      layer.candidates_merged = counter(metrics, "bcp.candidates_merged");
      layer.qualified = counter(metrics, "bcp.qualified_graphs");
      layer.holds_acquired = counter(metrics, "bcp.holds_acquired");
      layer.holds_reused = counter(metrics, "bcp.holds_reused");
      layer.trees = ov.route_trees_computed() - trees0;
      layer.paths = ov.route_paths_materialized() - paths0;
      layer.events = s.sim.events_executed();
      layer.lease_renewals = s.alloc->lease_renewals();
      layer.arena_peak = bcp.arena_totals().peak_live_segments;
      layer.sessions = sessions.stats();
      layer.run_ms = round.run_ms;
    } else if (round.arrivals != reference.arrivals ||
               round.established != reference.established) {
      rep.problem("serving round differs from the first round");
    }
    ++rounds;
    // At least two rounds, so that every run checks its replays.
  } while (rounds < 2 ||
           ms_between(measure_start, Clock::now()) < options.seconds * 1000.0);
  rep.rounds = rounds;

  if (!(speed.checksum() > 0.0)) rep.problem("speed reference computed nothing");
  const double arrivals0 = double(reference.arrivals);
  const double composed = double(layer.requests);
  rep.e2e("setup_s", setup_s, "s");
  rep.e2e("request_ref_ms_p50", percentile(ref_gaps_ms, 50.0), "ms");
  rep.e2e("requests_per_ref_s",
          ratio(double(rep.attempted), ref_run_total_ms / 1000.0), "1/s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("virtual_setup_ms_p50", percentile(layer.setup_ms, 50.0), "ms");
  rep.e2e("probe_messages_per_request",
          ratio(double(layer.probe_messages), arrivals0), "count");

  rep.layer("wall.setup_s", setup_raw_s, "s");
  rep.layer("speed.setup_reference_ms", setup.reference_ms(), "ms");
  report_build_timings(build_timings, rep);
  rep.layer("wall.request_ms_p50", percentile(gaps_ms, 50.0), "ms");
  rep.layer("wall.requests_per_s",
            ratio(double(rep.attempted), run_total_ms / 1000.0), "1/s");
  rep.layer("speed.reference_ms_p50", percentile(speed.samples_ms(), 50.0), "ms");
  rep.layer("overlay.route_trees_per_request", ratio(double(layer.trees), arrivals0),
            "count");
  rep.layer("overlay.route_paths_per_request", ratio(double(layer.paths), arrivals0),
            "count");
  rep.layer("discovery.messages_per_request",
            ratio(double(layer.discovery_messages), arrivals0), "count");
  rep.layer("bcp.probes_spawned_per_request",
            ratio(double(layer.probes_spawned), composed), "count");
  rep.layer("bcp.useful_probe_ratio",
            ratio(double(layer.probes_arrived), double(layer.probes_spawned)),
            "ratio");
  rep.layer("bcp.candidates_merged_per_request",
            ratio(double(layer.candidates_merged), composed), "count");
  rep.layer("bcp.qualified_per_request", ratio(double(layer.qualified), composed),
            "count");
  rep.layer("bcp.hold_reuse_ratio",
            ratio(double(layer.holds_reused),
                  double(layer.holds_acquired + layer.holds_reused)),
            "ratio");
  rep.layer("bcp.arena_peak_segments", double(layer.arena_peak), "count");
  rep.layer("bcp.virtual_setup_ms_p95", percentile(layer.setup_ms, 95.0), "ms");
  rep.layer("alloc.holds_per_request", ratio(double(layer.holds_acquired), composed),
            "count");
  rep.layer("alloc.utilization_peak", layer.util_peak, "ratio");
  rep.layer("alloc.lease_renewals", double(layer.lease_renewals), "count");
  rep.layer("session.on_peer_failed_ms_p50", percentile(failed_ms, 50.0), "ms");
  rep.layer("deployment.kill_ms_p50", percentile(kill_ms, 50.0), "ms");
  rep.layer("deployment.revive_ms_p50", percentile(revive_ms, 50.0), "ms");
  rep.layer("session.backups_mean", layer.sessions.avg_backups(), "count");
  rep.layer("session.backup_switches", double(layer.sessions.backup_switches),
            "count");
  rep.layer("session.reactive_recoveries",
            double(layer.sessions.reactive_recoveries), "count");
  rep.layer("session.losses", double(layer.sessions.losses), "count");
  rep.layer("sim.events", double(layer.events), "count");
  rep.layer("sim.wall_us_per_event",
            ratio(layer.run_ms * 1000.0, double(layer.events)), "us");
  rep.layer("sim.pending_peak", double(layer.pending_peak), "count");
  rep.layer("traffic.tick_wall_ms_p50", percentile(tick_ms, 50.0), "ms");
  return rep;
}

}  // namespace perfbench
