// Tests for SessionManager: establishment/confirmation, Eq. 2 backup
// sizing, §5.2 backup selection policy, failure recovery paths
// (backup switch, reactive BCP, loss), and maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/session.hpp"
#include "fault/fault.hpp"
#include "test_scenario.hpp"

namespace spider::core {
namespace {

using service::ServiceGraph;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = spider::testing::small_scenario(/*seed=*/17, /*peers=*/64);
    BcpConfig config;
    config.probing_budget = 128;
    engine_ = std::make_unique<BcpEngine>(*scenario_->deployment,
                                          *scenario_->alloc,
                                          *scenario_->evaluator,
                                          scenario_->sim, config);
    RecoveryConfig recovery;
    // Generous QoS margins would make Eq. 2 prescribe zero backups; scale
    // the margin so the switch/maintenance paths have backups to exercise.
    recovery.backup_aggressiveness = 30.0;
    manager_ = std::make_unique<SessionManager>(
        *scenario_->deployment, *scenario_->alloc, *scenario_->evaluator,
        *engine_, scenario_->sim, recovery);
    rng_.reseed(23);
  }

  // A request whose bounds make Eq. 2 prescribe at least one backup for
  // any graph that qualifies. easy_request's bounds are so generous that
  // this fixture's best graph uses 0.0225 of them (QoS ratio sum) plus
  // 0.0108 of the failure bound: margin 0.0332, x aggressiveness 30 =
  // 0.997, and floor(0.997) = 0 backups. Here the delay bound is 20x a
  // floor no composition can beat: overlay routes are shortest paths, so
  // a chain's links sum to at least d(source, dest), and each node adds
  // at least its function's fastest live replica. Every qualified graph
  // then has delay / bound >= 1/20, so margin >= 0.05 and
  // gamma >= floor(30 x 0.05) = floor(1.5) = 1 (capped by C - 1, so the
  // pool needs a second qualified graph).
  service::CompositeRequest backed_request() {
    auto req = spider::testing::easy_request(*scenario_);
    auto& deployment = *scenario_->deployment;
    double floor_ms =
        deployment.overlay().route(req.source, req.dest)->delay_ms;
    for (service::FnNode n = 0; n < req.graph.node_count(); ++n) {
      double fastest = std::numeric_limits<double>::infinity();
      for (auto id : deployment.replicas_oracle(req.graph.function(n))) {
        if (deployment.component_alive(id)) {
          fastest =
              std::min(fastest, deployment.component(id).perf.delay_ms());
        }
      }
      floor_ms += fastest;
    }
    req.qos_req = service::Qos::delay_loss(20.0 * floor_ms, 1.0);
    return req;
  }

  SessionId compose_and_establish(const service::CompositeRequest& req) {
    ComposeResult r = engine_->compose(req, rng_);
    if (!r.success) return kInvalidSession;
    return manager_->establish(req, std::move(r));
  }

  std::unique_ptr<workload::Scenario> scenario_;
  std::unique_ptr<BcpEngine> engine_;
  std::unique_ptr<SessionManager> manager_;
  Rng rng_{23};
};

TEST_F(SessionTest, EstablishConfirmsResources) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  EXPECT_EQ(manager_->active_sessions(), 1u);
  EXPECT_GT(scenario_->alloc->active_grants(), 0u);
  EXPECT_EQ(scenario_->alloc->active_holds(), 0u)
      << "all holds converted or released after establish";
  manager_->teardown(id);
  EXPECT_EQ(manager_->active_sessions(), 0u);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u);
}

TEST_F(SessionTest, BackupCountFollowsEq2Shape) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);

  // Comfortable margins -> small gamma; tight margins -> larger gamma.
  service::CompositeRequest generous = req;
  generous.qos_req = service::Qos::delay_loss(r.best.qos.delay_ms() * 100.0, 10.0);
  generous.max_failure_prob = 1.0;
  const int g1 = manager_->backup_count(r.best, generous, 100);

  service::CompositeRequest tight = req;
  tight.qos_req = service::Qos::delay_loss(r.best.qos.delay_ms() * 1.05,
                                           r.best.qos.loss_log() + 1.0);
  tight.max_failure_prob = std::max(r.best.failure_prob, 1e-6);
  const int g2 = manager_->backup_count(r.best, tight, 100);

  EXPECT_LE(g1, g2);
  EXPECT_GE(g1, 0);
  // Bounded by U and C-1.
  EXPECT_LE(g2, RecoveryConfig{}.backup_upper_bound);
  EXPECT_EQ(manager_->backup_count(r.best, tight, 1), 0)
      << "gamma <= C-1";
  for (HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
}

TEST_F(SessionTest, SelectBackupsAvoidsTargetComponents) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  ASSERT_GE(r.backups.size(), 2u);

  auto selected = SessionManager::select_backups(r.best, r.backups, 2);
  EXPECT_LE(selected.size(), 2u);
  ASSERT_FALSE(selected.empty());
  // The first selection (covering the most failure-prone component) must
  // not use that component.
  service::ComponentId worst = r.best.mapping[0].id;
  double worst_fail = r.best.mapping[0].failure_prob;
  for (const auto& m : r.best.mapping) {
    if (m.failure_prob > worst_fail) {
      worst = m.id;
      worst_fail = m.failure_prob;
    }
  }
  bool some_avoids_worst = false;
  for (const auto& b : selected) {
    if (!b.uses_component(worst)) some_avoids_worst = true;
  }
  EXPECT_TRUE(some_avoids_worst);
  for (HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
}

TEST_F(SessionTest, SelectBackupsPrefersOverlap) {
  // Construct a synthetic pool: one graph overlapping in 2 components,
  // one fully disjoint; for single-component coverage the overlapping one
  // must win (fast switchover preference).
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);

  // The policy covers the highest-failure component first, so build the
  // overlapping candidate by swapping exactly that component out.
  service::FnNode worst_node = 0;
  for (service::FnNode n = 1; n < r.best.pattern.node_count(); ++n) {
    if (r.best.mapping[n].failure_prob >
        r.best.mapping[worst_node].failure_prob) {
      worst_node = n;
    }
  }
  ServiceGraph overlapping = r.best;
  const auto fn = overlapping.pattern.function(worst_node);
  for (auto id : scenario_->deployment->replicas_oracle(fn)) {
    if (id != overlapping.mapping[worst_node].id &&
        scenario_->deployment->component_alive(id)) {
      overlapping.mapping[worst_node] =
          service::ComponentMetadata::from(scenario_->deployment->component(id));
      break;
    }
  }
  ASSERT_FALSE(overlapping.same_mapping(r.best));

  ServiceGraph disjoint = r.best;
  for (service::FnNode n = 0; n < disjoint.pattern.node_count(); ++n) {
    for (auto id :
         scenario_->deployment->replicas_oracle(disjoint.pattern.function(n))) {
      if (!r.best.uses_component(id) &&
          scenario_->deployment->component_alive(id)) {
        disjoint.mapping[n] =
            service::ComponentMetadata::from(scenario_->deployment->component(id));
        break;
      }
    }
  }

  auto selected = SessionManager::select_backups(
      r.best, {disjoint, overlapping}, 1);
  ASSERT_EQ(selected.size(), 1u);
  // The target to avoid is best.mapping[x] for some x; `overlapping`
  // avoids mapping[0] with overlap 2, `disjoint` avoids it with overlap 0.
  EXPECT_TRUE(selected[0].same_mapping(overlapping));
  for (HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
}

TEST_F(SessionTest, PeerFailureTriggersBackupSwitch) {
  auto req = backed_request();
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  const ServiceGraph* active = manager_->active_graph(id);
  ASSERT_NE(active, nullptr);
  ASSERT_GE(manager_->backup_count_of(id), 1u);
  const PeerId victim = active->mapping[0].host;
  scenario_->deployment->kill_peer(victim);
  auto outcomes = manager_->on_peer_failed(victim, rng_);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0] == RecoveryOutcome::kSwitchedToBackup ||
              outcomes[0] == RecoveryOutcome::kReactiveRecovered);
  const ServiceGraph* now = manager_->active_graph(id);
  ASSERT_NE(now, nullptr);
  EXPECT_FALSE(now->uses_peer(victim));
  EXPECT_EQ(manager_->stats().breaks, 1u);
}

TEST_F(SessionTest, UnaffectedSessionsAreNotTouched)  {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  const ServiceGraph* active = manager_->active_graph(id);
  // Kill a peer the active graph does not use.
  PeerId victim = overlay::kInvalidPeer;
  for (PeerId p = 0; p < scenario_->deployment->peer_count(); ++p) {
    if (!active->uses_peer(p) && p != req.source && p != req.dest) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, overlay::kInvalidPeer);
  scenario_->deployment->kill_peer(victim);
  auto outcomes = manager_->on_peer_failed(victim, rng_);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], RecoveryOutcome::kNotAffected);
  EXPECT_EQ(manager_->stats().breaks, 0u);
}

TEST_F(SessionTest, ReactiveRecoveryWhenProactiveDisabled) {
  RecoveryConfig config;
  config.proactive = false;
  SessionManager reactive_mgr(*scenario_->deployment, *scenario_->alloc,
                              *scenario_->evaluator, *engine_, scenario_->sim,
                              config);
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  const SessionId id = reactive_mgr.establish(req, std::move(r));
  ASSERT_NE(id, kInvalidSession);
  EXPECT_EQ(reactive_mgr.backup_count_of(id), 0u);

  const PeerId victim = reactive_mgr.active_graph(id)->mapping[0].host;
  scenario_->deployment->kill_peer(victim);
  auto outcomes = reactive_mgr.on_peer_failed(victim, rng_);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0] == RecoveryOutcome::kReactiveRecovered ||
              outcomes[0] == RecoveryOutcome::kLost);
  EXPECT_EQ(reactive_mgr.stats().backup_switches, 0u);
}

TEST_F(SessionTest, MaintenancePrunesDeadBackups) {
  auto req = backed_request();
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  ASSERT_GE(manager_->backup_count_of(id), 1u);
  manager_->run_maintenance();
  EXPECT_GT(manager_->stats().maintenance_messages, 0u);
  // Backups survive maintenance while everything is alive.
  EXPECT_GE(manager_->backup_count_of(id), 1u);
}

TEST_F(SessionTest, MonitoringDetectsFailuresWithoutOracle) {
  // Kill a peer WITHOUT notifying the manager; the periodic monitoring
  // pass must detect the break and recover on its own.
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  const ServiceGraph* active = manager_->active_graph(id);
  ASSERT_NE(active, nullptr);
  const PeerId victim = active->mapping[0].host;
  scenario_->deployment->kill_peer(victim);  // no on_peer_failed call

  const auto before_msgs = manager_->stats().maintenance_messages;
  auto outcomes = manager_->monitor_active_sessions(rng_);
  EXPECT_GT(manager_->stats().maintenance_messages, before_msgs)
      << "monitoring costs liveness probes";
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_NE(outcomes[0], RecoveryOutcome::kNotAffected);
  if (manager_->active_graph(id) != nullptr) {
    EXPECT_FALSE(manager_->active_graph(id)->uses_peer(victim));
  }
  // A second pass with nothing broken triggers no recoveries.
  EXPECT_TRUE(manager_->monitor_active_sessions(rng_).empty());
}

TEST_F(SessionTest, AvgBackupStatisticTracked) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  EXPECT_EQ(manager_->stats().backup_count_samples, 1u);
  EXPECT_GE(manager_->stats().avg_backups(), 0.0);
}

// ---- lifecycle state machine, control legs, leases, anti-entropy --------

TEST_F(SessionTest, StateIsActiveWhileLiveAndTornDownAfter) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  EXPECT_EQ(manager_->session_state(id), SessionState::kActive);
  manager_->teardown(id);
  EXPECT_EQ(manager_->session_state(id), SessionState::kTornDown);
  EXPECT_EQ(manager_->session_state(SessionId{999999}),
            SessionState::kTornDown)
      << "unknown sessions read as terminal";
}

TEST_F(SessionTest, TotalLossAbortsEstablishCleanly) {
  // Every control message dies: the confirm leg's request never arrives,
  // so the establishment aborts and nothing is left granted (the peers
  // never converted their holds).
  const auto model = fault::LinkFaultModel::uniform_loss(1.0);
  manager_->set_fault_model(&model);
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  const SessionId id = manager_->establish(req, std::move(r));
  EXPECT_EQ(id, kInvalidSession);
  EXPECT_EQ(manager_->stats().confirms_lost, 1u);
  EXPECT_GT(manager_->stats().ctrl_retransmits, 0u);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u);
  EXPECT_EQ(manager_->active_sessions(), 0u);
}

TEST_F(SessionTest, LostTeardownStrandsGrantsUntilAuditReclaims) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  ASSERT_GT(scenario_->alloc->active_grants(), 0u);

  // The network dies just before teardown: the message never arrives.
  const auto model = fault::LinkFaultModel::uniform_loss(1.0);
  manager_->set_fault_model(&model);
  manager_->teardown(id);
  EXPECT_EQ(manager_->active_sessions(), 0u) << "the source forgets anyway";
  EXPECT_EQ(manager_->stats().teardowns_lost, 1u);
  EXPECT_GT(scenario_->alloc->active_grants(), 0u) << "grants stranded";

  // Anti-entropy: the audit sees grants with no live session and reclaims.
  const auto report = manager_->audit();
  EXPECT_EQ(report.orphan_sessions, 1u);
  EXPECT_TRUE(report.conserved);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u);
  EXPECT_EQ(manager_->stats().orphans_reclaimed, 1u);
}

TEST_F(SessionTest, SourceCrashOrphansAreReclaimedByAudit) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  const PeerId source = manager_->active_graph(id)->source;

  scenario_->deployment->kill_peer(source);
  EXPECT_EQ(manager_->on_source_crashed(source), 1u);
  EXPECT_EQ(manager_->active_sessions(), 0u);
  EXPECT_EQ(manager_->stats().source_crashes, 1u);
  EXPECT_GT(scenario_->alloc->active_grants(), 0u)
      << "a crashed source cannot tear down";

  const auto report = manager_->audit();
  EXPECT_EQ(report.orphan_sessions, 1u);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u);
}

TEST_F(SessionTest, LeaseExpiryReclaimsAndKillsTheSession) {
  scenario_->alloc->set_lease_ttl_ms(50.0);
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  ASSERT_TRUE(scenario_->alloc->lease_renew_by(id).has_value());

  // Nobody renews for 200ms (> ttl): the lease lapses; the audit reclaims
  // the grants and tears the zombie session down.
  scenario_->sim.schedule_at(200.0, [] {});
  scenario_->sim.run();
  const auto report = manager_->audit();
  EXPECT_EQ(report.leases_reclaimed, 1u);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u);
  EXPECT_EQ(manager_->active_sessions(), 0u);
  EXPECT_EQ(manager_->session_state(id), SessionState::kTornDown);
}

TEST_F(SessionTest, MaintenanceRenewalKeepsLeaseAlive) {
  scenario_->alloc->set_lease_ttl_ms(500.0);
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);

  // Renew every 200ms for 2s — well past the naked ttl.
  for (int i = 1; i <= 10; ++i) {
    scenario_->sim.schedule_at(double(i) * 200.0, [] {});
    scenario_->sim.run();
    manager_->run_maintenance();
  }
  EXPECT_GE(manager_->stats().lease_renew_messages, 10u);
  const auto report = manager_->audit();
  EXPECT_EQ(report.leases_reclaimed, 0u);
  EXPECT_EQ(manager_->active_sessions(), 1u);
  EXPECT_EQ(manager_->session_state(id), SessionState::kActive);
  EXPECT_TRUE(report.conserved);
}

TEST_F(SessionTest, AuditConservationHoldsOnHealthySessions) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId a = compose_and_establish(req);
  const SessionId b = compose_and_establish(req);
  ASSERT_NE(a, kInvalidSession);
  ASSERT_NE(b, kInvalidSession);
  const auto report = manager_->audit();
  EXPECT_TRUE(report.conserved);
  EXPECT_EQ(report.orphan_sessions, 0u);
  EXPECT_EQ(report.leases_reclaimed, 0u);
}

TEST_F(SessionTest, PeriodicAuditRunsOnTheSimulator) {
  auto req = spider::testing::easy_request(*scenario_);
  const SessionId id = compose_and_establish(req);
  ASSERT_NE(id, kInvalidSession);
  const PeerId source = manager_->active_graph(id)->source;
  scenario_->deployment->kill_peer(source);
  manager_->on_source_crashed(source);
  ASSERT_GT(scenario_->alloc->active_grants(), 0u);

  manager_->enable_periodic_audit(100.0);
  scenario_->sim.run_until(1000.0);
  EXPECT_EQ(scenario_->alloc->active_grants(), 0u)
      << "the periodic audit reclaimed the crashed source's orphan";
  manager_->enable_periodic_audit(0.0);  // disarm before teardown
}

}  // namespace
}  // namespace spider::core
