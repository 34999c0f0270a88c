// Tests for the Bounded Composition Probing engine: success on feasible
// requests, budget sensitivity, QoS filtering, soft-hold hygiene, DAG and
// commutation handling, stats accounting.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/bcp.hpp"
#include "core/baselines.hpp"
#include "core/hold_keys.hpp"
#include "test_scenario.hpp"

namespace spider::core {
namespace {

class BcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = spider::testing::small_scenario();
    engine_ = std::make_unique<BcpEngine>(*scenario_->deployment,
                                          *scenario_->alloc,
                                          *scenario_->evaluator,
                                          scenario_->sim, BcpConfig{});
    rng_.reseed(5);
  }

  std::unique_ptr<workload::Scenario> scenario_;
  std::unique_ptr<BcpEngine> engine_;
  Rng rng_{5};
};

TEST_F(BcpTest, ComposesFeasibleLinearRequest) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.mapping.size(), 3u);
  EXPECT_TRUE(r.best.evaluated);
  EXPECT_TRUE(r.best.qos.within(req.qos_req));
  EXPECT_GT(r.stats.probes_spawned, 0u);
  EXPECT_GT(r.stats.probe_messages, 0u);
  EXPECT_GT(r.stats.discovery_messages, 0u);
  EXPECT_GT(r.stats.setup_time_ms, 0.0);
  // Mapping respects function identity.
  for (service::FnNode n = 0; n < r.best.pattern.node_count(); ++n) {
    EXPECT_EQ(r.best.mapping[n].function, r.best.pattern.function(n));
  }
}

TEST_F(BcpTest, BestHoldsAreConfirmable) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.best_holds.empty());
  const SessionId session = scenario_->alloc->new_session_id();
  for (HoldId hold : r.best_holds) {
    EXPECT_TRUE(scenario_->alloc->confirm(hold, session));
  }
  scenario_->alloc->release_session(session);
}

TEST_F(BcpTest, NonBestHoldsAreReleased) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  // Only the best graph's holds remain live.
  EXPECT_EQ(scenario_->alloc->active_holds(), r.best_holds.size());
}

TEST_F(BcpTest, FailsOnImpossibleQos) {
  auto req = spider::testing::easy_request(*scenario_);
  req.qos_req = service::Qos::delay_loss(0.001, 0.0);  // unmeetable
  ComposeResult r = engine_->compose(req, rng_);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(scenario_->alloc->active_holds(), 0u)
      << "failed compose must release every hold";
}

TEST_F(BcpTest, FailsOnUnknownFunction) {
  auto req = spider::testing::easy_request(*scenario_);
  scenario_->deployment->catalog().intern("fn/never-deployed");
  req.graph = service::make_linear_graph(
      {scenario_->deployment->catalog().find("fn/never-deployed")});
  ComposeResult r = engine_->compose(req, rng_);
  EXPECT_FALSE(r.success);
}

TEST_F(BcpTest, FailsWhenSourceDead) {
  auto req = spider::testing::easy_request(*scenario_);
  scenario_->deployment->kill_peer(req.source);
  ComposeResult r = engine_->compose(req, rng_);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.stats.probes_spawned, 0u);
}

TEST_F(BcpTest, LargerBudgetExaminesMoreCandidates) {
  auto req = spider::testing::easy_request(*scenario_);
  BcpConfig small = engine_->config();
  small.probing_budget = 2;
  BcpConfig large = small;
  large.probing_budget = 128;

  engine_->set_config(small);
  ComposeResult rs = engine_->compose(req, rng_);
  // Release before re-running so availability is identical.
  for (HoldId h : rs.best_holds) scenario_->alloc->release_hold(h);
  engine_->set_config(large);
  ComposeResult rl = engine_->compose(req, rng_);
  for (HoldId h : rl.best_holds) scenario_->alloc->release_hold(h);

  EXPECT_GE(rl.stats.probes_spawned, rs.stats.probes_spawned);
  EXPECT_GE(rl.stats.candidates_merged, rs.stats.candidates_merged);
  if (rs.success && rl.success) {
    EXPECT_LE(rl.best.psi_cost, rs.best.psi_cost + 1e-9)
        << "a superset search cannot pick a worse best";
  }
}

TEST_F(BcpTest, BudgetBoundsMessages) {
  auto req = spider::testing::easy_request(*scenario_);
  BcpConfig config = engine_->config();
  config.probing_budget = 4;
  config.quota_policy = QuotaPolicy::kUniform;
  config.quota_base = 2;
  engine_->set_config(config);
  ComposeResult small = engine_->compose(req, rng_);
  // With a tiny budget the probe tree stays tiny: seeds * per-hop fanout
  // bounded by quota, depth = 3 functions + final leg.
  EXPECT_LE(small.stats.probes_spawned, 40u);
}

TEST_F(BcpTest, ComposesDagRequest) {
  const auto base = spider::testing::easy_request(*scenario_);
  service::CompositeRequest req = base;
  service::FunctionGraph g;
  g.add_function(base.graph.function(0));
  g.add_function(base.graph.function(1));
  g.add_function(base.graph.function(2));
  g.add_function(base.graph.function(0));
  g.add_dependency(0, 1);
  g.add_dependency(0, 2);
  g.add_dependency(1, 3);
  g.add_dependency(2, 3);
  req.graph = g;
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.mapping.size(), 4u);
  // Merged mapping agrees across the shared entry/exit nodes by
  // construction; verify the hop set covers both branches.
  EXPECT_EQ(r.best.hops.size(), 1u + 4u + 1u);  // ingress + 4 edges + egress
}

TEST_F(BcpTest, CommutationFindsExchangedOrders) {
  auto req = spider::testing::easy_request(*scenario_);
  req.graph.add_commutation(1, 2);

  BcpConfig with = engine_->config();
  with.use_commutation = true;
  with.probing_budget = 64;
  engine_->set_config(with);
  ComposeResult r_with = engine_->compose(req, rng_);
  for (HoldId h : r_with.best_holds) scenario_->alloc->release_hold(h);

  BcpConfig without = with;
  without.use_commutation = false;
  engine_->set_config(without);
  ComposeResult r_without = engine_->compose(req, rng_);
  for (HoldId h : r_without.best_holds) scenario_->alloc->release_hold(h);

  ASSERT_TRUE(r_with.success);
  ASSERT_TRUE(r_without.success);
  // The commutation run explores a superset of orders.
  EXPECT_GE(r_with.stats.candidates_merged, r_without.stats.candidates_merged);
}

TEST_F(BcpTest, BackupsAreQualifiedAndDistinct) {
  auto req = spider::testing::easy_request(*scenario_);
  BcpConfig config = engine_->config();
  config.probing_budget = 128;
  engine_->set_config(config);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  for (const auto& backup : r.backups) {
    EXPECT_TRUE(backup.qos.within(req.qos_req));
    EXPECT_FALSE(backup.same_mapping(r.best));
    EXPECT_GE(backup.psi_cost + 1e-12, r.best.psi_cost)
        << "backups are ranked after the best";
  }
}

TEST_F(BcpTest, SoftHoldsPreventConcurrentOveradmission) {
  // Saturate capacity artificially so that only a few sessions fit, then
  // compose repeatedly without teardown: admitted sessions' grants plus
  // live holds must never exceed capacity (checked via peer_available
  // never going negative).
  auto req = spider::testing::easy_request(*scenario_);
  for (int i = 0; i < 10; ++i) {
    ComposeResult r = engine_->compose(req, rng_);
    if (!r.success) break;
    const SessionId session = scenario_->alloc->new_session_id();
    for (HoldId h : r.best_holds) scenario_->alloc->confirm(h, session);
  }
  for (PeerId p = 0; p < scenario_->deployment->peer_count(); ++p) {
    EXPECT_TRUE(scenario_->alloc->peer_available(p).non_negative())
        << "peer " << p;
  }
}

TEST_F(BcpTest, MinDelayObjectivePrefersFasterGraphs) {
  auto req = spider::testing::easy_request(*scenario_);
  BcpConfig config = engine_->config();
  config.probing_budget = 128;
  config.objective = SelectionObjective::kMinDelay;
  engine_->set_config(config);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  for (HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
  // Backups are ranked by delay under this objective.
  for (const auto& b : r.backups) {
    EXPECT_GE(b.qos.delay_ms() + 1e-9, r.best.qos.delay_ms());
  }
}

TEST_F(BcpTest, CheckOnlyModeMakesNoReservations) {
  auto req = spider::testing::easy_request(*scenario_);
  BcpConfig config = engine_->config();
  config.soft_allocation = false;
  engine_->set_config(config);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.best_holds.empty());
  EXPECT_EQ(scenario_->alloc->active_holds(), 0u);
}

TEST_F(BcpTest, QualityLevelMatchingFiltersCandidates) {
  // Deploy two fresh replicas of a new function: one accepts the source's
  // level, one demands more. Only the compatible one may ever be chosen.
  auto& deployment = *scenario_->deployment;
  const auto fn = deployment.catalog().intern("fn/leveled");

  service::ServiceComponent ok;
  ok.host = 5;
  ok.function = fn;
  ok.perf = service::Qos::delay_loss(10, 0);
  ok.required = service::Resources::cpu_mem(1, 1);
  ok.input_level = 1;
  ok.output_level = 3;
  deployment.deploy_component(ok);

  service::ServiceComponent demanding = ok;
  demanding.host = 9;
  demanding.input_level = 4;  // source stream (level 2) cannot feed it
  const auto demanding_id = deployment.deploy_component(demanding).id;

  service::CompositeRequest req;
  req.graph = service::make_linear_graph({fn});
  req.qos_req = service::Qos::delay_loss(100000.0, 1.0);
  req.source = 0;
  req.dest = 1;
  req.source_level = 2;
  req.min_dest_level = 3;

  for (int i = 0; i < 5; ++i) {
    ComposeResult r = engine_->compose(req, rng_);
    ASSERT_TRUE(r.success);
    EXPECT_FALSE(r.best.uses_component(demanding_id));
    EXPECT_GE(r.best.mapping[0].output_level, 3u);
    for (HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
  }

  // Raise the destination's bar beyond every replica: must fail.
  req.min_dest_level = 4;
  ComposeResult none = engine_->compose(req, rng_);
  EXPECT_FALSE(none.success);
}

TEST_F(BcpTest, StatsTimingOrdering) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.stats.probing_time_ms, r.stats.discovery_time_ms);
  EXPECT_GE(r.stats.setup_time_ms, r.stats.probing_time_ms);
}

TEST_F(BcpTest, ProbeAccountingIsExhaustive) {
  auto req = spider::testing::easy_request(*scenario_);
  ComposeResult r = engine_->compose(req, rng_);
  ASSERT_TRUE(r.success);
  // Every spawned probe ends in exactly one terminal outcome; candidate
  // skips are not probe drops and are tracked on their own.
  EXPECT_EQ(r.stats.probes_spawned,
            r.stats.probes_arrived + r.stats.probes_dropped_total() +
                r.stats.probes_forwarded);
  EXPECT_GT(r.stats.probes_arrived, 0u);
  EXPECT_GT(r.stats.holds_acquired, 0u);
}

// --------------------------------------------------------- quota policy

TEST_F(BcpTest, ReplicaProportionalQuotaHonorsQuotaBase) {
  BcpConfig config = engine_->config();
  config.quota_policy = QuotaPolicy::kReplicaProportional;
  config.max_quota = 100;

  // quota_base is the per-8 replica fraction: 8 probes every replica,
  // 4 (the default) probes half, 2 a quarter — always at least one.
  config.quota_base = 8;
  engine_->set_config(config);
  EXPECT_EQ(engine_->quota_for(1), 1);
  EXPECT_EQ(engine_->quota_for(10), 10);
  EXPECT_EQ(engine_->quota_for(100), 100);

  config.quota_base = 4;
  engine_->set_config(config);
  EXPECT_EQ(engine_->quota_for(1), 1);
  EXPECT_EQ(engine_->quota_for(9), 5);  // ceil(9/2), the seed default
  EXPECT_EQ(engine_->quota_for(10), 5);

  config.quota_base = 2;
  engine_->set_config(config);
  EXPECT_EQ(engine_->quota_for(10), 3);  // ceil(10/4)
  EXPECT_EQ(engine_->quota_for(1), 1);

  // The hard cap still applies.
  config.quota_base = 8;
  config.max_quota = 6;
  engine_->set_config(config);
  EXPECT_EQ(engine_->quota_for(100), 6);

  // Uniform policy keeps its meaning: α_k = quota_base.
  config.quota_policy = QuotaPolicy::kUniform;
  config.quota_base = 3;
  config.max_quota = 16;
  engine_->set_config(config);
  EXPECT_EQ(engine_->quota_for(1), 3);
  EXPECT_EQ(engine_->quota_for(1000), 3);
}

// ------------------------------------------------- hold-key regression

// The seed packed soft-hold dedup keys into a single uint64 with
// overlapping shift ranges; distinct tuples could alias, making the
// engine silently reuse a hold made for a *different* service link or
// component (under-reservation). These tests pin tuples that collided
// under the old packing and assert the struct keys keep them distinct.
TEST(HoldKeyRegression, PathTuplesCollidingUnderOldPackingStayDistinct) {
  // Seed: (from << 48) ^ (to << 32) ^ (src << 16) ^ dst. src overlaps dst
  // whenever dst >= 2^16.
  auto old_key = [](std::uint64_t from, std::uint64_t to, std::uint64_t src,
                    std::uint64_t dst) {
    return (from << 48) ^ (to << 32) ^ (src << 16) ^ dst;
  };
  const SharedPathKey a{2, 3, 1, 0};
  const SharedPathKey b{2, 3, 0, 1u << 16};
  ASSERT_EQ(old_key(a.from, a.to, a.src, a.dst),
            old_key(b.from, b.to, b.src, b.dst))
      << "tuples must collide under the old packing for this regression "
         "test to be meaningful";
  EXPECT_FALSE(a == b);

  std::unordered_map<SharedPathKey, HoldId, SharedPathKeyHash> holds;
  holds.emplace(a, HoldId(1));
  holds.emplace(b, HoldId(2));
  ASSERT_EQ(holds.size(), 2u) << "distinct paths must map to distinct holds";
  EXPECT_EQ(holds.at(a), HoldId(1));
  EXPECT_EQ(holds.at(b), HoldId(2));
}

TEST(HoldKeyRegression, PeerTuplesCollidingUnderOldPackingStayDistinct) {
  // Seed: (node << 48) ^ component. ComponentId packs (host << 32) |
  // local, so any host >= 2^16 reaches into the node bits.
  auto old_key = [](std::uint64_t node, std::uint64_t comp) {
    return (node << 48) ^ comp;
  };
  const SharedPeerKey a{1, 0};
  const SharedPeerKey b{0, std::uint64_t(1) << 48};
  ASSERT_EQ(old_key(a.node, a.component), old_key(b.node, b.component));
  EXPECT_FALSE(a == b);

  std::unordered_map<SharedPeerKey, HoldId, SharedPeerKeyHash> holds;
  holds.emplace(a, HoldId(1));
  holds.emplace(b, HoldId(2));
  ASSERT_EQ(holds.size(), 2u)
      << "distinct components must map to distinct holds";
  EXPECT_EQ(holds.at(a), HoldId(1));
  EXPECT_EQ(holds.at(b), HoldId(2));
}

TEST(HoldKeyRegression, HoldCoverNodeAndEdgeNamespacesAreDisjoint) {
  // node(n) and edge(0, n) carried identical bits in several old
  // packings; the kind tag now separates the namespaces.
  const HoldCoverKey node = HoldCoverKey::node(5);
  const HoldCoverKey edge = HoldCoverKey::edge(0, 5);
  EXPECT_FALSE(node == edge);
  std::unordered_map<HoldCoverKey, HoldId, HoldCoverKeyHash> by_key;
  by_key.emplace(node, HoldId(1));
  by_key.emplace(edge, HoldId(2));
  EXPECT_EQ(by_key.size(), 2u);
}

}  // namespace
}  // namespace spider::core
