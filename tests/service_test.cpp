// Tests for the service model: QoS algebra, resources, function graphs
// (DAG checks, patterns via commutation, branch decomposition), service
// graph helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "service/function_graph.hpp"
#include "service/qos.hpp"
#include "service/service_graph.hpp"

namespace spider::service {
namespace {

TEST(Qos, AdditiveAccumulation) {
  Qos a = Qos::delay_loss(10.0, 0.1);
  Qos b = Qos::delay_loss(5.0, 0.2);
  a += b;
  EXPECT_DOUBLE_EQ(a.delay_ms(), 15.0);
  EXPECT_DOUBLE_EQ(a.loss_log(), 0.3);
}

TEST(Qos, WithinBounds) {
  const Qos bound = Qos::delay_loss(100.0, 0.5);
  EXPECT_TRUE(Qos::delay_loss(100.0, 0.5).within(bound));
  EXPECT_TRUE(Qos::delay_loss(0.0, 0.0).within(bound));
  EXPECT_FALSE(Qos::delay_loss(100.1, 0.0).within(bound));
  EXPECT_FALSE(Qos::delay_loss(0.0, 0.51).within(bound));
}

TEST(Qos, RatioSum) {
  const Qos bound = Qos::delay_loss(100.0, 1.0);
  EXPECT_DOUBLE_EQ(Qos::delay_loss(50.0, 0.5).ratio_sum(bound), 1.0);
  EXPECT_DOUBLE_EQ(Qos::delay_loss(100.0, 1.0).ratio_sum(bound), 2.0);
  // Zero bound with zero metric contributes nothing.
  const Qos zero_bound = Qos::delay_loss(100.0, 0.0);
  EXPECT_DOUBLE_EQ(Qos::delay_loss(50.0, 0.0).ratio_sum(zero_bound), 0.5);
  // Zero bound with nonzero metric is unmeetable.
  EXPECT_GT(Qos::delay_loss(50.0, 0.1).ratio_sum(zero_bound), 1e8);
}

TEST(Qos, LossTransformRoundTrip) {
  for (double loss : {0.0, 0.01, 0.1, 0.5, 0.9}) {
    EXPECT_NEAR(additive_to_loss(loss_to_additive(loss)), loss, 1e-12);
  }
  // Additivity: two links of 10% loss ≈ 19% end-to-end.
  const double two_hops = loss_to_additive(0.1) + loss_to_additive(0.1);
  EXPECT_NEAR(additive_to_loss(two_hops), 0.19, 1e-12);
}

TEST(Resources, ArithmeticAndFit) {
  Resources a = Resources::cpu_mem(4, 8);
  const Resources b = Resources::cpu_mem(2, 2);
  EXPECT_TRUE(b.fits_within(a));
  EXPECT_FALSE(a.fits_within(b));
  a -= b;
  EXPECT_DOUBLE_EQ(a.cpu(), 2.0);
  EXPECT_DOUBLE_EQ(a.memory(), 6.0);
  EXPECT_TRUE(a.non_negative());
  a -= Resources::cpu_mem(5, 0);
  EXPECT_FALSE(a.non_negative());
}

TEST(FunctionCatalog, InternAndFind) {
  FunctionCatalog catalog;
  const FunctionId a = catalog.intern("transcode");
  const FunctionId b = catalog.intern("scale");
  EXPECT_NE(a, b);
  EXPECT_EQ(catalog.intern("transcode"), a);
  EXPECT_EQ(catalog.find("scale"), b);
  EXPECT_EQ(catalog.find("nope"), kInvalidFunction);
  EXPECT_EQ(catalog.name(a), "transcode");
}

FunctionGraph diamond() {
  // F0 -> {F1, F2} -> F3, commutation between F1 and F2.
  FunctionGraph g;
  for (FunctionId f : {10u, 11u, 12u, 13u}) g.add_function(f);
  g.add_dependency(0, 1);
  g.add_dependency(0, 2);
  g.add_dependency(1, 3);
  g.add_dependency(2, 3);
  g.add_commutation(1, 2);
  return g;
}

TEST(FunctionGraph, BasicTopology) {
  FunctionGraph g = diamond();
  EXPECT_TRUE(g.is_dag());
  EXPECT_FALSE(g.is_linear());
  EXPECT_EQ(g.sources(), (std::vector<FnNode>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<FnNode>{3}));
  EXPECT_EQ(g.successors(0), (std::vector<FnNode>{1, 2}));
  EXPECT_EQ(g.predecessors(3), (std::vector<FnNode>{1, 2}));
}

TEST(FunctionGraph, DetectsCycle) {
  FunctionGraph g;
  g.add_function(1);
  g.add_function(2);
  g.add_dependency(0, 1);
  g.add_dependency(1, 0);
  EXPECT_FALSE(g.is_dag());
}

TEST(FunctionGraph, TopologicalOrderRespectsDeps) {
  FunctionGraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](FnNode n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  for (const auto& [u, v] : g.dependencies()) EXPECT_LT(pos(u), pos(v));
}

TEST(FunctionGraph, LinearChainHelpers) {
  FunctionGraph g = make_linear_graph({5, 6, 7});
  EXPECT_TRUE(g.is_linear());
  EXPECT_TRUE(g.is_dag());
  EXPECT_EQ(g.node_count(), 3u);
  const auto branches = g.branches();
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0], (std::vector<FnNode>{0, 1, 2}));
}

TEST(FunctionGraph, BranchesOfDiamond) {
  const auto branches = diamond().branches();
  ASSERT_EQ(branches.size(), 2u);
  std::set<std::vector<FnNode>> set(branches.begin(), branches.end());
  EXPECT_TRUE(set.count({0, 1, 3}));
  EXPECT_TRUE(set.count({0, 2, 3}));
}

TEST(FunctionGraph, BranchesCoverAllNodes) {
  FunctionGraph g = diamond();
  std::set<FnNode> covered;
  for (const auto& b : g.branches()) covered.insert(b.begin(), b.end());
  EXPECT_EQ(covered.size(), g.node_count());
}

TEST(FunctionGraph, PatternsIncludeOriginalFirst) {
  FunctionGraph g = diamond();
  const auto patterns = g.patterns();
  ASSERT_GE(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].signature(), g.signature());
}

TEST(FunctionGraph, CommutationExchangesOrder) {
  // Linear chain A -> B -> C with commutation (B, C): two patterns,
  // the second being A -> C -> B.
  FunctionGraph g = make_linear_graph({1, 2, 3});
  g.add_commutation(1, 2);
  const auto patterns = g.patterns();
  ASSERT_EQ(patterns.size(), 2u);
  const auto& swapped = patterns[1];
  const auto branches = swapped.branches();
  ASSERT_EQ(branches.size(), 1u);
  std::vector<FunctionId> fn_order;
  for (FnNode n : branches[0]) fn_order.push_back(swapped.function(n));
  EXPECT_EQ(fn_order, (std::vector<FunctionId>{1, 3, 2}));
}

TEST(FunctionGraph, NoCommutationMeansOnePattern) {
  FunctionGraph g = make_linear_graph({1, 2, 3, 4});
  EXPECT_EQ(g.patterns().size(), 1u);
}

TEST(FunctionGraph, PatternsRemainDags) {
  FunctionGraph g = diamond();
  g.add_commutation(0, 3);
  for (const auto& p : g.patterns()) EXPECT_TRUE(p.is_dag());
}

TEST(FunctionGraph, PatternsDedupeIdenticalFunctions) {
  // Commuting two nodes with the SAME function yields an identical
  // pattern, which must be deduplicated.
  FunctionGraph g = make_linear_graph({7, 7, 9});
  g.add_commutation(0, 1);
  EXPECT_EQ(g.patterns().size(), 1u);
}

TEST(FunctionGraph, PatternCapRespected) {
  FunctionGraph g = make_linear_graph({1, 2, 3, 4, 5, 6});
  for (FnNode i = 0; i + 1 < 6; ++i) g.add_commutation(i, i + 1);
  EXPECT_LE(g.patterns(4).size(), 4u);
}

ServiceGraph tiny_graph(std::vector<ComponentId> ids) {
  ServiceGraph g;
  g.pattern = make_linear_graph({1, 2});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ComponentMetadata m;
    m.id = ids[i];
    m.host = overlay::PeerId(ids[i] >> 32);
    g.mapping.push_back(m);
  }
  return g;
}

TEST(ServiceGraph, OverlapAndUses) {
  ServiceGraph a = tiny_graph({make_component_id(1, 0), make_component_id(2, 0)});
  ServiceGraph b = tiny_graph({make_component_id(1, 0), make_component_id(3, 0)});
  EXPECT_EQ(a.overlap(b), 1u);
  EXPECT_TRUE(a.uses_component(make_component_id(1, 0)));
  EXPECT_FALSE(a.uses_component(make_component_id(9, 0)));
  EXPECT_TRUE(a.uses_peer(2));
  EXPECT_FALSE(a.uses_peer(3));
  EXPECT_FALSE(a.same_mapping(b));
  EXPECT_TRUE(a.same_mapping(a));
}

}  // namespace
}  // namespace spider::service
