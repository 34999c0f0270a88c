// Correctness checks computed apart from the program.
//
// Each check recomputes what it verifies from first principles (its own
// Dijkstra, its own longest-branch delay, its own set comparison) and
// reads the program only through public accessors. A check returns an
// empty string when it passes and a one-line reason when it fails.
// self_test() feeds every check deliberately corrupted inputs and
// confirms each one is able to fail.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/bcp.hpp"
#include "core/deployment.hpp"
#include "overlay/community.hpp"
#include "overlay/overlay.hpp"
#include "service/service_graph.hpp"
#include "workload/traffic.hpp"

namespace perfbench {

namespace sp = spider;

/// Min-delay distances from `src` to every peer over live peers, by a
/// plain binary-heap Dijkstra over OverlayNetwork::neighbors().
std::vector<double> reference_distances(const sp::overlay::OverlayNetwork& ov,
                                        sp::overlay::PeerId src);

/// Every link of the hop's path is a live overlay link, the links chain
/// from_peer to to_peer, and the path delay is the sum of link delays.
std::string check_hop_path(const sp::overlay::OverlayNetwork& ov,
                           const sp::service::ServiceLinkHop& hop);

/// The hop's path delay equals the reference shortest-path distance.
std::string check_hop_shortest(const sp::overlay::OverlayNetwork& ov,
                               const sp::service::ServiceLinkHop& hop);

/// Every component implements its node's function on a live peer, every
/// hop's path is valid (check_hop_path), and the end-to-end delay
/// recomputed from component and link delays matches graph.qos and
/// meets the request's bound.
std::string check_graph(const sp::core::Deployment& deployment,
                        const sp::service::CompositeRequest& request,
                        const sp::service::ServiceGraph& graph);

/// probes_arrived <= beta and spawned == arrived + dropped + forwarded.
std::string check_probe_accounting(const sp::core::ComposeStats& stats,
                                   int beta);

/// `found` is exactly the live members of replicas_oracle(function).
std::string check_discovery(
    const sp::core::Deployment& deployment, sp::service::FunctionId function,
    const std::vector<sp::service::ComponentMetadata>& found);

/// No soft hold and no grant is left in the allocator.
std::string check_quiesced(const sp::core::AllocationManager& alloc);

/// lower <= exact <= estimate for one sampled pair.
std::string check_landmark_pair(double lower, double exact, double estimate);

/// A community partition as plain data, so the check can be fed a
/// corrupted copy.
struct Partition {
  std::vector<std::vector<sp::overlay::PeerId>> members;
  std::vector<sp::overlay::CommunityId> community_of;  ///< per peer
};
Partition partition_of(const sp::overlay::CommunityMap& map);

/// Every peer is listed in exactly one community, and that community is
/// the one community_of names.
std::string check_partition(const Partition& partition);

/// Wraps TrafficDriver's arrival process and counts the arrivals it hands
/// out, recording the wall-clock instant of each draw. TrafficDriver draws
/// arrival k+1 when arrival k fires, so consecutive stamps bracket the
/// wall time TrafficDriver spent on one arrival and the events before the
/// next.
class CountingArrivals : public sp::workload::ArrivalProcess {
 public:
  explicit CountingArrivals(std::unique_ptr<sp::workload::ArrivalProcess> inner)
      : inner_(std::move(inner)) {}
  std::optional<sp::sim::Time> next_arrival() override;
  /// Work to run at each draw, outside the measured gaps.
  void set_between_draws(std::function<void()> fn) { between_draws_ = std::move(fn); }
  std::uint64_t count() const { return count_; }
  /// Wall-clock gaps between consecutive draws, in ms.
  const std::vector<double>& gaps_ms() const { return gaps_ms_; }

 private:
  std::unique_ptr<sp::workload::ArrivalProcess> inner_;
  std::uint64_t count_ = 0;
  bool stamped_ = false;
  std::chrono::steady_clock::time_point last_;
  std::vector<double> gaps_ms_;
  std::function<void()> between_draws_;
};

/// Arrivals counted outside TrafficDriver equal the sum of its
/// terminal outcomes, and nothing is left open at quiesce.
std::string check_arrivals(std::uint64_t counted,
                           const sp::workload::TrafficStats& stats);

/// Sum of TrafficDriver's terminal outcomes over all phases (established,
/// compose failures, final rejects and queue timeouts, retry give-ups).
std::uint64_t terminal_outcomes(const sp::workload::TrafficStats& stats);

/// Runs every check on small real worlds, then on deliberately corrupted
/// copies of their results (a swapped path link, a wrong component
/// function, a leaked hold, an off-by-one arrival count and more).
/// Returns one line per problem: a check that failed on real data or
/// passed on corrupted data. Empty means every check can fail.
std::vector<std::string> self_test(bool verbose);

}  // namespace perfbench
