// Function graph (§2.1) — the abstract half of the composite service
// request.
//
// Nodes are required service functions; *dependency* links say the output
// of one function feeds its successor; *commutation* links mark pairs of
// functions whose composition order may be exchanged (e.g. color filter vs
// image scaling in Figure 4).  The graph must be a DAG.
//
// Two derived views drive the composition machinery:
//  * `patterns()` — the set of composition patterns reachable by applying
//    commutation exchanges (dimension 1 of the two-dimensional mapping
//    problem, Figure 4);
//  * `branches()` — the source→sink paths of a pattern; BCP probes walk
//    one branch each and the destination merges them (§4.3).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/component.hpp"

namespace spider::service {

/// Index of a node within a FunctionGraph (not a FunctionId).
using FnNode = std::uint32_t;

/// Directed acyclic graph of required functions.
class FunctionGraph {
 public:
  FunctionGraph() = default;

  /// Appends a node requiring `function`; returns its node index.
  FnNode add_function(FunctionId function);

  /// Adds a dependency edge u -> v (u's output feeds v).
  void add_dependency(FnNode u, FnNode v);

  /// Declares that the composition order of u and v may be exchanged.
  void add_commutation(FnNode u, FnNode v);

  std::size_t node_count() const { return functions_.size(); }
  FunctionId function(FnNode n) const { return functions_.at(n); }
  const std::vector<std::pair<FnNode, FnNode>>& dependencies() const {
    return deps_;
  }
  const std::vector<std::pair<FnNode, FnNode>>& commutations() const {
    return comms_;
  }

  std::vector<FnNode> successors(FnNode n) const;
  std::vector<FnNode> predecessors(FnNode n) const;
  /// Nodes with no predecessors / successors.
  std::vector<FnNode> sources() const;
  std::vector<FnNode> sinks() const;

  /// True if the dependency edges form a DAG over all nodes.
  bool is_dag() const;

  /// Topological order of nodes; requires is_dag().
  std::vector<FnNode> topological_order() const;

  /// True if the graph is a single chain (each node <=1 pred, <=1 succ).
  bool is_linear() const;

  /// All composition patterns derivable by exchanging commutable pairs:
  /// each pattern keeps this graph's node set but may swap the positions
  /// of commutable nodes in the dependency structure.  The original graph
  /// is always patterns()[0]; duplicates are removed.  The pattern count
  /// is bounded by 2^|commutations| and additionally by `max_patterns`.
  std::vector<FunctionGraph> patterns(std::size_t max_patterns = 64) const;

  /// All source→sink dependency paths (node-index sequences).
  /// Requires is_dag(). For a linear graph there is exactly one branch.
  std::vector<std::vector<FnNode>> branches() const;

  /// Canonical signature of the dependency structure (function ids +
  /// edges), used to deduplicate patterns.
  std::string signature() const;

 private:
  std::vector<FunctionId> functions_;
  std::vector<std::pair<FnNode, FnNode>> deps_;
  std::vector<std::pair<FnNode, FnNode>> comms_;
};

/// Convenience: linear chain over the given function ids, in order.
FunctionGraph make_linear_graph(const std::vector<FunctionId>& functions);

}  // namespace spider::service
