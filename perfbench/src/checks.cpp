#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <set>

#include "core/session.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using sp::overlay::PeerId;
using sp::service::FnNode;
using sp::service::ServiceLinkHop;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

std::vector<double> reference_distances(const sp::overlay::OverlayNetwork& ov,
                                        PeerId src) {
  std::vector<double> dist(ov.peer_count(), kInf);
  if (!ov.alive(src)) return dist;
  using Item = std::pair<double, PeerId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const sp::overlay::OverlayAdjacency& adj : ov.neighbors(u)) {
      if (!ov.alive(adj.neighbor)) continue;
      const double nd = d + ov.link(adj.link).delay_ms;
      if (nd < dist[adj.neighbor]) {
        dist[adj.neighbor] = nd;
        heap.push({nd, adj.neighbor});
      }
    }
  }
  return dist;
}

std::string check_hop_path(const sp::overlay::OverlayNetwork& ov,
                           const ServiceLinkHop& hop) {
  const sp::overlay::OverlayPath& path = hop.path;
  if (!path.valid) return "hop path not valid";
  if (hop.from_peer == hop.to_peer) {
    if (!path.links.empty() || path.delay_ms != 0.0) {
      return "same-peer hop carries links";
    }
    return "";
  }
  PeerId at = hop.from_peer;
  double sum = 0.0;
  for (sp::overlay::OverlayLinkId id : path.links) {
    if (id >= ov.link_count()) return "hop path names an unknown link";
    const sp::overlay::OverlayLink& link = ov.link(id);
    if (link.a != at && link.b != at) return "hop path links do not chain";
    if (!ov.alive(link.a) || !ov.alive(link.b)) {
      return "hop path uses a dead peer";
    }
    at = link.other(at);
    sum += link.delay_ms;
  }
  if (at != hop.to_peer) return "hop path ends at the wrong peer";
  if (!close_enough(path.delay_ms, sum)) {
    return fmt("hop path delay %.6f != link sum %.6f", path.delay_ms, sum);
  }
  return "";
}

std::string check_hop_shortest(const sp::overlay::OverlayNetwork& ov,
                               const ServiceLinkHop& hop) {
  if (hop.from_peer == hop.to_peer) return "";
  const double ref = reference_distances(ov, hop.from_peer)[hop.to_peer];
  if (!close_enough(hop.path.delay_ms, ref)) {
    return fmt("hop delay %.6f != reference shortest path %.6f",
               hop.path.delay_ms, ref);
  }
  return "";
}

std::string check_graph(const sp::core::Deployment& deployment,
                        const sp::service::CompositeRequest& request,
                        const sp::service::ServiceGraph& graph) {
  const sp::service::FunctionGraph& pattern = graph.pattern;
  const std::size_t n = pattern.node_count();
  if (graph.source != request.source || graph.dest != request.dest) {
    return "graph endpoints differ from the request";
  }
  if (graph.mapping.size() != n) return "mapping size != pattern size";
  if (n != request.graph.node_count()) return "pattern size != request size";

  // The pattern implements exactly the requested functions.
  std::multiset<sp::service::FunctionId> want, have;
  for (FnNode i = 0; i < n; ++i) {
    want.insert(request.graph.function(i));
    have.insert(pattern.function(i));
  }
  if (want != have) return "pattern functions differ from the request";

  // Each component implements its node's function on a live peer.
  for (FnNode i = 0; i < n; ++i) {
    const sp::service::ComponentMetadata& meta = graph.mapping[i];
    if (meta.function != pattern.function(i)) {
      return "component function differs from its node's function";
    }
    if (meta.host >= deployment.peer_count() ||
        !deployment.peer_alive(meta.host)) {
      return "component host is not a live peer";
    }
    const auto& on_host = deployment.components_on(meta.host);
    if (std::find(on_host.begin(), on_host.end(), meta.id) == on_host.end()) {
      return "component is not deployed on its host";
    }
    if (deployment.component(meta.id).function != pattern.function(i) ||
        !deployment.component_alive(meta.id)) {
      return "deployed component is dead or implements another function";
    }
  }

  // Hop lookup and per-hop path validity.
  auto peer_of = [&](FnNode node, PeerId endpoint) {
    return node == ServiceLinkHop::kEndpoint ? endpoint
                                             : graph.mapping[node].host;
  };
  auto find_hop = [&](FnNode from, FnNode to) -> const ServiceLinkHop* {
    for (const ServiceLinkHop& hop : graph.hops) {
      if (hop.from == from && hop.to == to) return &hop;
    }
    return nullptr;
  };
  for (const ServiceLinkHop& hop : graph.hops) {
    if (hop.from_peer != peer_of(hop.from, graph.source) ||
        hop.to_peer != peer_of(hop.to, graph.dest)) {
      return "hop endpoints differ from the mapping";
    }
    const std::string why = check_hop_path(deployment.overlay(), hop);
    if (!why.empty()) return why;
  }

  // End-to-end delay: longest branch of link + component delays, by a
  // Kahn topological pass over the dependency edges.
  std::vector<std::vector<FnNode>> preds(n), succs(n);
  for (const auto& [u, v] : pattern.dependencies()) {
    succs[u].push_back(v);
    preds[v].push_back(u);
  }
  std::vector<std::size_t> indegree(n);
  std::vector<FnNode> order;
  for (FnNode i = 0; i < n; ++i) {
    indegree[i] = preds[i].size();
    if (indegree[i] == 0) order.push_back(i);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (FnNode v : succs[order[k]]) {
      if (--indegree[v] == 0) order.push_back(v);
    }
  }
  if (order.size() != n) return "pattern is not a DAG";
  std::vector<double> out(n, 0.0);
  double e2e = 0.0;
  for (FnNode v : order) {
    double in = -kInf;
    if (preds[v].empty()) {
      const ServiceLinkHop* hop = find_hop(ServiceLinkHop::kEndpoint, v);
      if (hop == nullptr) return "missing source hop";
      in = hop->path.delay_ms;
    }
    for (FnNode u : preds[v]) {
      const ServiceLinkHop* hop = find_hop(u, v);
      if (hop == nullptr) return "missing dependency hop";
      in = std::max(in, out[u] + hop->path.delay_ms);
    }
    out[v] = in + graph.mapping[v].perf.delay_ms();
    if (succs[v].empty()) {
      const ServiceLinkHop* hop = find_hop(v, ServiceLinkHop::kEndpoint);
      if (hop == nullptr) return "missing destination hop";
      e2e = std::max(e2e, out[v] + hop->path.delay_ms);
    }
  }
  if (!close_enough(graph.qos.delay_ms(), e2e)) {
    return fmt("graph delay %.6f != recomputed %.6f", graph.qos.delay_ms(),
               e2e);
  }
  if (e2e > request.qos_req.delay_ms() * (1.0 + 1e-9)) {
    return fmt("graph delay %.6f exceeds the bound %.6f", e2e,
               request.qos_req.delay_ms());
  }
  return "";
}

std::string check_probe_accounting(const sp::core::ComposeStats& stats,
                                   int beta) {
  if (stats.probes_arrived > std::uint64_t(beta)) {
    return fmt("probes arrived %.0f > beta %.0f", double(stats.probes_arrived),
               double(beta));
  }
  const std::uint64_t terminal = stats.probes_arrived +
                                 stats.probes_dropped_total() +
                                 stats.probes_forwarded;
  if (stats.probes_spawned != terminal) {
    return fmt("probes spawned %.0f != arrived + dropped + forwarded %.0f",
               double(stats.probes_spawned), double(terminal));
  }
  return "";
}

std::string check_discovery(
    const sp::core::Deployment& deployment, sp::service::FunctionId function,
    const std::vector<sp::service::ComponentMetadata>& found) {
  std::vector<sp::service::ComponentId> want, have;
  for (sp::service::ComponentId id : deployment.replicas_oracle(function)) {
    if (deployment.component_alive(id)) want.push_back(id);
  }
  for (const sp::service::ComponentMetadata& meta : found) {
    if (meta.function != function) return "discovery returned another function";
    have.push_back(meta.id);
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  if (want != have) {
    return fmt("discovery returned %.0f replicas, %.0f live in the oracle",
               double(have.size()), double(want.size()));
  }
  return "";
}

std::string check_quiesced(const sp::core::AllocationManager& alloc) {
  if (alloc.active_holds() != 0 || alloc.active_grants() != 0) {
    return fmt("allocator keeps %.0f holds and %.0f grants",
               double(alloc.active_holds()), double(alloc.active_grants()));
  }
  return "";
}

std::string check_landmark_pair(double lower, double exact, double estimate) {
  if (!(lower <= exact + 1e-9) || !(exact <= estimate + 1e-9)) {
    return fmt("landmark bounds broken: lower %.6f exact %.6f estimate %.6f",
               lower, exact, estimate);
  }
  return "";
}

Partition partition_of(const sp::overlay::CommunityMap& map) {
  Partition p;
  for (sp::overlay::CommunityId c = 0; c < map.community_count(); ++c) {
    const auto members = map.members(c);
    p.members.emplace_back(members.begin(), members.end());
  }
  for (PeerId peer = 0; peer < map.peer_count(); ++peer) {
    p.community_of.push_back(map.community_of(peer));
  }
  return p;
}

std::string check_partition(const Partition& partition) {
  const std::size_t peers = partition.community_of.size();
  std::vector<int> seen(peers, 0);
  for (std::size_t c = 0; c < partition.members.size(); ++c) {
    for (PeerId p : partition.members[c]) {
      if (p >= peers) return "community lists an unknown peer";
      ++seen[p];
      if (partition.community_of[p] != c) {
        return "peer listed in a community other than its own";
      }
    }
  }
  for (int count : seen) {
    if (count != 1) return "peer not in exactly one community";
  }
  return "";
}

std::optional<sp::sim::Time> CountingArrivals::next_arrival() {
  const auto now = std::chrono::steady_clock::now();
  if (stamped_) {
    gaps_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
  }
  if (between_draws_) between_draws_();
  stamped_ = true;
  last_ = std::chrono::steady_clock::now();
  std::optional<sp::sim::Time> t = inner_->next_arrival();
  if (t.has_value()) ++count_;
  return t;
}

std::uint64_t terminal_outcomes(const sp::workload::TrafficStats& stats) {
  std::uint64_t total = 0;
  for (const sp::workload::PhaseStats& ps : stats.phases) {
    total += ps.established + ps.compose_failures + ps.rejected +
             ps.queue_timeouts + ps.retry_gaveups;
  }
  return total;
}

std::string check_arrivals(std::uint64_t counted,
                           const sp::workload::TrafficStats& stats) {
  const std::uint64_t terminal = terminal_outcomes(stats);
  if (counted != terminal) {
    return fmt("counted %.0f arrivals, TrafficDriver reports %.0f outcomes",
               double(counted), double(terminal));
  }
  if (stats.open_requests_at_quiesce != 0 ||
      stats.retries_inflight_at_quiesce != 0) {
    return "requests left open at quiesce";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Self-test

namespace {

struct SelfTest {
  bool verbose = false;
  std::vector<std::string> problems;

  void pass(const std::string& what, const std::string& why) {
    if (!why.empty()) problems.push_back(what + " failed on real data: " + why);
  }
  void fail(const std::string& what, const std::string& why) {
    if (why.empty()) {
      problems.push_back(what + " passed on corrupted data");
    } else if (verbose) {
      std::fprintf(stderr, "self-test: %s -> %s\n", what.c_str(), why.c_str());
    }
  }
};

void test_compose_checks(SelfTest& t) {
  sp::workload::SimScenarioConfig config;
  config.seed = 0x5e1f7e57;
  config.peers = 160;
  config.ip_nodes = 640;
  config.function_count = 40;
  auto s = sp::workload::build_sim_scenario(config);
  sp::core::BcpConfig bcp_config;
  bcp_config.probe_timeout_ms = 60000.0;
  sp::core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                          bcp_config);
  sp::workload::RequestProfile profile;
  profile.min_functions = 3;
  profile.max_functions = 4;
  profile.per_hop_delay_budget_ms = 200.0;

  // First successful compose whose graph has a multi-link hop.
  for (int attempt = 0; attempt < 40; ++attempt) {
    auto gen = sp::workload::sample_request(*s, profile);
    sp::core::ComposeResult r = bcp.compose(gen.request, s->rng);
    std::size_t long_hop = r.best.hops.size();
    for (std::size_t h = 0; h < r.best.hops.size(); ++h) {
      if (r.best.hops[h].path.links.size() >= 2) long_hop = h;
    }
    if (!r.success || long_hop == r.best.hops.size()) {
      for (sp::core::HoldId h : r.best_holds) s->alloc->release_hold(h);
      continue;
    }
    const auto& ov = s->deployment->overlay();
    const auto& req = gen.request;
    t.pass("graph check", check_graph(*s->deployment, req, r.best));
    t.pass("probe accounting", check_probe_accounting(r.stats, 64));
    for (const ServiceLinkHop& hop : r.best.hops) {
      t.pass("shortest-path check", check_hop_shortest(ov, hop));
    }

    sp::service::ServiceGraph swapped = r.best;
    std::swap(swapped.hops[long_hop].path.links[0],
              swapped.hops[long_hop].path.links[1]);
    t.fail("graph check, swapped path link",
           check_graph(*s->deployment, req, swapped));

    sp::service::ServiceGraph detour = r.best;
    detour.hops[long_hop].path.delay_ms += 1.0;
    t.fail("shortest-path check, lengthened hop",
           check_hop_shortest(ov, detour.hops[long_hop]));

    sp::service::ServiceGraph wrong_fn = r.best;
    wrong_fn.mapping[0].function =
        (wrong_fn.mapping[0].function + 1) % config.function_count;
    t.fail("graph check, wrong component function",
           check_graph(*s->deployment, req, wrong_fn));

    sp::service::ServiceGraph wrong_qos = r.best;
    wrong_qos.qos[sp::service::Qos::kDelay] *= 0.5;
    t.fail("graph check, understated delay",
           check_graph(*s->deployment, req, wrong_qos));

    sp::core::ComposeStats stats = r.stats;
    ++stats.probes_forwarded;
    t.fail("probe accounting, unspawned forward",
           check_probe_accounting(stats, 64));
    t.fail("probe accounting, beta exceeded",
           check_probe_accounting(r.stats, int(r.stats.probes_arrived) - 1));

    // The best graph's holds are still outstanding: a leaked hold.
    t.fail("quiesce check, leaked hold", check_quiesced(*s->alloc));
    for (sp::core::HoldId h : r.best_holds) s->alloc->release_hold(h);
    t.pass("quiesce check", check_quiesced(*s->alloc));

    const sp::service::FunctionId fn = req.graph.function(0);
    auto found = s->deployment->registry().discover(req.source, fn).components;
    t.pass("discovery check", check_discovery(*s->deployment, fn, found));
    auto missing = found;
    missing.pop_back();
    t.fail("discovery check, missing replica",
           check_discovery(*s->deployment, fn, missing));
    auto doubled = found;
    doubled.push_back(found.front());
    t.fail("discovery check, duplicated replica",
           check_discovery(*s->deployment, fn, doubled));
    return;
  }
  t.problems.push_back("self-test world composed no multi-link graph");
}

void test_landmark_checks(SelfTest& t) {
  sp::workload::SimScenarioConfig config;
  config.seed = 0x1a4d3a2c;
  config.peers = 300;
  config.ip_nodes = 900;
  config.function_count = 40;
  config.use_latency_estimator = true;
  config.landmark_count = 8;
  config.use_communities = true;
  config.community_count = 4;
  auto s = sp::workload::build_sim_scenario(config);
  auto& ov = s->deployment->overlay();
  const PeerId src = 7, dst = 211;
  const double exact = ov.delay_ms(src, dst);
  const double est = ov.estimated_delay_ms(src, dst);
  const double lower = ov.estimator()->lower_bound_ms(src, dst);
  t.pass("landmark check", check_landmark_pair(lower, exact, est));
  t.fail("landmark check, estimate below exact",
         check_landmark_pair(lower, exact, exact * 0.9));
  t.fail("landmark check, lower bound above exact",
         check_landmark_pair(exact * 1.1, exact, est));

  Partition p = partition_of(*s->communities);
  t.pass("partition check", check_partition(p));
  Partition twice = p;
  twice.members[1].push_back(twice.members[0].front());
  t.fail("partition check, peer in two communities", check_partition(twice));
  Partition dropped = p;
  dropped.members[0].pop_back();
  t.fail("partition check, peer in no community", check_partition(dropped));
}

void test_arrival_checks(SelfTest& t) {
  sp::workload::SimScenarioConfig config;
  config.seed = 0xa771;
  config.peers = 80;
  config.ip_nodes = 320;
  config.function_count = 20;
  auto s = sp::workload::build_sim_scenario(config);
  sp::core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim);
  sp::core::SessionManager sessions(*s->deployment, *s->alloc, *s->evaluator,
                                    bcp, s->sim);
  sp::workload::TrafficDriver::Config traffic;
  traffic.schedule =
      sp::workload::PhaseSchedule({{"steady", 10000.0, 4.0, -1.0}});
  traffic.seed = 0xa772;
  traffic.lifetime.mean_ms = 3000.0;
  traffic.drain_ms = 12000.0;
  auto counting = std::make_unique<CountingArrivals>(
      std::make_unique<sp::workload::PoissonProcess>(traffic.schedule,
                                                     traffic.seed));
  CountingArrivals* counter = counting.get();
  sp::workload::TrafficDriver traffic_driver(*s, bcp, sessions, traffic,
                                             std::move(counting));
  const sp::workload::TrafficStats& stats = traffic_driver.run();
  t.pass("arrival check", check_arrivals(counter->count(), stats));
  t.fail("arrival check, off-by-one count",
         check_arrivals(counter->count() + 1, stats));
  t.pass("quiesce check after serving", check_quiesced(*s->alloc));
}

}  // namespace

std::vector<std::string> self_test(bool verbose) {
  SelfTest t;
  t.verbose = verbose;
  test_compose_checks(t);
  test_landmark_checks(t);
  test_arrival_checks(t);
  return t.problems;
}

}  // namespace perfbench
