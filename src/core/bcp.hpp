// Bounded Composition Probing (§4) — SpiderNet's setup-phase protocol.
//
// Given a composite request, the source:
//   1. enumerates composition patterns (commutation exchanges, §2.4) and
//      decomposes each into branch paths (§4.3);
//   2. spawns probes carrying a probing budget β, split across
//      pattern/branch seeds and then hop by hop per §4.2:
//      I_k = min(β_k, α_k) next-hop components are probed, each child
//      receiving ⌊β_k/Z_k⌋ (enough budget for all replicas) or ⌊β_k/I_k⌋;
//   3. per hop, the probed peer checks accumulated QoS against the user's
//      requirements (drop on violation), soft-allocates the component's
//      resources and the incoming path's bandwidth (step 2.1), discovers
//      next-hop replicas via the DHT registry (step 2.3's meta-data
//      retrieval), and scores candidates with a composite local metric
//      (network delay + component performance + failure probability);
//   4. the destination merges per-branch probes into complete service
//      graphs, keeps the QoS-qualified ones and ranks them by ψ_λ (§4.3);
//   5. the best graph's soft holds are kept for confirmation; all other
//      holds created by this request are released (the timeout path).
//
// Execution model (DESIGN.md §5): probing runs synchronously, one probe
// hop at a time in FIFO order, with analytically accumulated virtual
// latency per probe — the scale Fig 8 requires. Message and timing totals
// are reported in ComposeStats.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/deployment.hpp"
#include "core/evaluator.hpp"
#include "core/probe_path.hpp"
#include "util/rng.hpp"

namespace spider::obs {
class MetricsRegistry;
class ProbeTrace;
enum class TraceEvent : std::uint8_t;
}  // namespace spider::obs

namespace spider::fault {
class LinkFaultModel;
}  // namespace spider::fault

namespace spider::overlay {
class CommunityMap;
}  // namespace spider::overlay

namespace spider::discovery {
class CommunityIndex;
}  // namespace spider::discovery

namespace spider::core {

enum class QuotaPolicy {
  kUniform,             ///< α_k = quota_base for every function
  kReplicaProportional  ///< α_k grows with the function's replica count
};

/// What the destination minimizes among qualified graphs (§4.3 uses ψ_λ;
/// the Fig 11 prototype experiment asks for minimum end-to-end delay).
enum class SelectionObjective { kMinPsi, kMinDelay };

struct BcpConfig {
  /// β: total number of probes available to a request.
  int probing_budget = 64;
  QuotaPolicy quota_policy = QuotaPolicy::kReplicaProportional;
  /// Base quota. Uniform policy: α_k = quota_base for every function.
  /// Proportional policy: the per-replica fraction anchor — α_k =
  /// ⌈replicas · quota_base / 8⌉, i.e. quota_base/8 is the fraction of a
  /// function's replica pool probed (8 probes every replica; the default
  /// 4 probes half). Both are clamped to [1, max_quota].
  int quota_base = 4;
  /// Hard per-function cap on α_k.
  int max_quota = 16;
  /// Explore commutation-derived patterns (ablation A1 turns this off).
  bool use_commutation = true;
  std::size_t max_patterns = 8;
  /// Destination collection timeout; also the soft-hold lifetime.
  double probe_timeout_ms = 8000.0;
  /// Per-hop probe processing cost added to the latency model.
  double per_hop_processing_ms = 2.0;
  /// Cap on merged candidate graphs evaluated at the destination.
  std::size_t max_candidates = 256;
  /// Cap on qualified graphs returned beyond the best (backup pool).
  std::size_t max_backups_returned = 16;
  /// Composite next-hop metric weights (step 2.3): lower score is better.
  double metric_w_link_delay = 1.0;
  double metric_w_perf_delay = 1.0;
  double metric_w_failure = 2000.0;  ///< ms-equivalent per unit probability
  /// Weight of the bandwidth-headroom term (ms-equivalent when the stream
  /// would consume the path's entire remaining bandwidth). Candidates on
  /// paths that cannot carry the stream sort last.
  double metric_w_bandwidth = 100.0;
  /// Uniform per-candidate jitter added to the selection metric. Without
  /// it every request ranks replicas identically and herds onto the same
  /// hosts, defeating load balancing; jitter decorrelates exploration
  /// while keeping good candidates likely (deterministic per request via
  /// the caller's Rng).
  double metric_jitter_ms = 40.0;
  /// Log-normal sigma of the peer's *estimate* of network delay to a
  /// candidate. Peers do not have precise global state (the paper's core
  /// premise, §1); their local delay estimates are off by a multiplicative
  /// factor exp(N(0, σ)). Larger budgets compensate by probing more
  /// candidates and letting the destination judge measured state.
  double metric_estimate_sigma = 0.5;
  SelectionObjective objective = SelectionObjective::kMinPsi;
  /// Soft resource allocation during probing (step 2.1). Turning it off
  /// (ablation A4) keeps the availability *check* but makes no
  /// reservation, so concurrent requests can race to admission.
  bool soft_allocation = true;
  /// Optional trust hook (the §8 future-work extension, implemented in
  /// src/trust): returns a score in (0, 1] for a candidate's host peer.
  /// Low-trust candidates are penalized by metric_w_trust · (1 − trust)
  /// in the next-hop metric. Null disables trust awareness.
  std::function<double(overlay::PeerId)> trust_fn;
  double metric_w_trust = 400.0;  ///< ms-equivalent at zero trust

  // ---- unreliable delivery (consulted only with a fault model attached,
  // see set_fault_model; a clean/absent model never samples) ------------
  /// Max retransmissions of one probe hop after the initial send. Each
  /// retransmission is charged against the probe's budget (floor 1), so
  /// β still bounds total probing overhead: a probe that burned budget
  /// on retransmissions explores fewer replicas downstream, and total
  /// transmissions stay <= (1 + probe_retx_limit) x the loss-free count.
  int probe_retx_limit = 3;
  /// Initial per-hop retransmission timeout is
  /// max(retx_min_rto_ms, retx_rtt_factor * path delay); each further
  /// attempt multiplies it by retx_backoff. Waits add to the probe's
  /// arrival time (setup latency) but not to its measured path QoS.
  double retx_min_rto_ms = 20.0;
  double retx_rtt_factor = 2.0;
  double retx_backoff = 2.0;

  // ---- two-tier probing (consulted only with communities attached, see
  // set_communities; flat BCP never reads these) ------------------------
  /// Share of β spent on the coarse inter-community tier: up to
  /// ⌊β · share⌋ communities are probed for QoS summaries (1 budget unit
  /// each, clamped to [1, β−1]) before the remaining budget seeds the
  /// per-hop fine tier. Σ coarse + fine == β, so the budget invariants of
  /// §4.2 hold across both tiers.
  double coarse_budget_share = 0.125;
  /// Cap on candidate communities the fine tier probes into; the coarse
  /// ranking greedily keeps the best-scoring communities that still add
  /// coverage of a requested function, pruning the rest.
  std::size_t max_candidate_communities = 4;
};

/// Cumulative PathArena accounting across every compose an engine ran.
/// `peak_live_segments` is the largest single-request high-water mark —
/// times sizeof(PathSegment) it is the engine's peak-RSS proxy for probe
/// state (the scaling benchmark's memory column).
struct ProbeArenaTotals {
  std::uint64_t segments_allocated = 0;
  std::uint64_t freelist_reused = 0;
  std::uint64_t peak_live_segments = 0;
};

struct ComposeStats {
  // Every spawned probe reaches exactly one terminal outcome:
  //   spawned == arrived + dropped_qos + dropped_resources
  //            + dropped_timeout + dropped_lost + forwarded
  // where "forwarded" means the probe continued as >= 1 child probes.
  std::uint64_t probes_spawned = 0;
  std::uint64_t probes_arrived = 0;
  std::uint64_t probes_forwarded = 0;   ///< continued as child probes
  std::uint64_t probes_dropped_qos = 0;
  std::uint64_t probes_dropped_resources = 0;
  std::uint64_t probes_dropped_timeout = 0;
  /// Final-leg message lost on every retransmission attempt (fault model).
  std::uint64_t probes_dropped_lost = 0;
  // Next-hop candidates rejected before a child probe existed (invalid
  // route, would-arrive-late, QoS violation, failed reservation, child
  // probe message lost despite retransmission). These were never probes,
  // so they are accounted separately from drops.
  std::uint64_t candidates_skipped_route = 0;
  std::uint64_t candidates_skipped_timeout = 0;
  std::uint64_t candidates_skipped_qos = 0;
  std::uint64_t candidates_skipped_resources = 0;
  std::uint64_t candidates_skipped_lost = 0;
  // Unreliable-delivery accounting (all zero without a fault model).
  std::uint64_t probe_retransmits = 0;     ///< extra sends that happened
  std::uint64_t probe_hop_timeouts = 0;    ///< per-hop retx timer firings
  std::uint64_t probe_messages_lost = 0;   ///< transmissions the net dropped
  /// Selected compositions abandoned because the step-4 setup ack never
  /// survived a hop despite retransmission (the request then fails).
  std::uint64_t setup_acks_lost = 0;
  // Soft-hold dedup effectiveness: fresh reservations vs sibling reuse.
  std::uint64_t holds_acquired = 0;
  std::uint64_t holds_reused = 0;
  // Probe-state copy accounting (the spawn hot path). `probe_bytes_copied`
  // is the volume of probe state physically copied when spawning probes;
  // `prefix_nodes_shared` counts prefix hops children inherited by
  // reference instead of copying.
  std::uint64_t probe_bytes_copied = 0;
  std::uint64_t prefix_nodes_shared = 0;
  // Two-tier accounting (both zero in flat mode — see set_communities).
  std::uint64_t coarse_probes = 0;       ///< inter-community summary probes
  std::uint64_t communities_pruned = 0;  ///< probed but not selected
  std::uint64_t probe_messages = 0;      ///< probe + ack transmissions
  std::uint64_t discovery_messages = 0;  ///< DHT lookup hops
  double discovery_time_ms = 0.0;        ///< critical-path discovery share
  double probing_time_ms = 0.0;          ///< arrival of last useful probe
  double setup_time_ms = 0.0;            ///< probing + ack/confirm leg
  std::size_t candidates_merged = 0;
  std::size_t qualified_found = 0;

  std::uint64_t probes_dropped_total() const {
    return probes_dropped_qos + probes_dropped_resources +
           probes_dropped_timeout + probes_dropped_lost;
  }
  std::uint64_t candidates_skipped_total() const {
    return candidates_skipped_route + candidates_skipped_timeout +
           candidates_skipped_qos + candidates_skipped_resources +
           candidates_skipped_lost;
  }
};

struct ComposeResult {
  bool success = false;
  service::ServiceGraph best;
  /// Other qualified graphs, ascending ψ — the backup pool for §5.
  std::vector<service::ServiceGraph> backups;
  /// Soft holds backing `best` (confirm with AllocationManager to admit).
  std::vector<HoldId> best_holds;
  ComposeStats stats;
};

class BcpEngine {
 public:
  BcpEngine(Deployment& deployment, AllocationManager& alloc,
            GraphEvaluator& evaluator, sim::Simulator& simulator,
            BcpConfig config = {})
      : deployment_(&deployment),
        alloc_(&alloc),
        evaluator_(&evaluator),
        sim_(&simulator),
        config_(config) {}

  /// Runs the full BCP flow for one request synchronously (probe latency
  /// is accumulated analytically; see DESIGN.md §5b). On success the best
  /// graph's holds are alive (expire at now + probe_timeout_ms unless
  /// confirmed); every other hold created here has been released.
  ComposeResult compose(const service::CompositeRequest& request, Rng& rng);

  const BcpConfig& config() const { return config_; }
  void set_config(const BcpConfig& config) { config_ = config; }

  /// α_k for a function with `replica_count` live replicas under the
  /// current quota policy (exposed for tests and capacity planning).
  int quota_for(std::size_t replica_count) const;

  /// Attaches observability sinks (either may be null; both default off).
  /// `metrics` receives cumulative "bcp.*" counters/histograms flushed
  /// once per compose; `trace` receives the per-request structured event
  /// log (seeds, hops, drops, holds, merge/selection). The engine never
  /// clears the trace — callers scope it per request or per campaign.
  void set_observability(obs::MetricsRegistry* metrics,
                         obs::ProbeTrace* trace) {
    metrics_ = metrics;
    trace_ = trace;
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::ProbeTrace* trace() const { return trace_; }

  /// Attaches a link fault model (null detaches — the default). With a
  /// model attached, every probe hop samples loss/jitter per overlay
  /// link; lost hops are retransmitted with exponential backoff up to
  /// probe_retx_limit times, charged against the probe's budget. A model
  /// whose probabilities are all zero is never sampled, so attaching one
  /// does not change fault-free results.
  void set_fault_model(const fault::LinkFaultModel* model) { fault_ = model; }
  const fault::LinkFaultModel* fault_model() const { return fault_; }

  /// Attaches a community partition + per-community discovery index,
  /// switching composes to two-tier probing: a coarse inter-community
  /// phase (summary probes to community heads, paid for out of β per
  /// coarse_budget_share) selects candidate communities, then the fine
  /// per-hop tier discovers replicas inside those communities only.
  /// Either pointer null detaches (the default — flat BCP, bit-for-bit
  /// the pre-community behavior). A map with a single community also runs
  /// flat: one community is the whole overlay, so there is nothing to
  /// prune and the legacy path is byte-identical.
  void set_communities(const overlay::CommunityMap* map,
                       const discovery::CommunityIndex* index) {
    communities_ = map;
    community_index_ = index;
  }
  const overlay::CommunityMap* communities() const { return communities_; }

  /// Probe-path arena accounting accumulated over all composes (see
  /// ProbeArenaTotals). Peak probe-state bytes ≈ peak_live_segments ×
  /// sizeof(PathSegment).
  const ProbeArenaTotals& arena_totals() const { return arena_totals_; }

 private:
  struct Probe;
  struct DiscoveryEntry;
  struct ComposeState;
  struct HopDelivery;
  struct MergedGraph;
  struct QualifiedGraph;
  /// A soft hold keyed by what it covers (a node or a service link).
  using CoveredHold = std::pair<HoldCoverKey, HoldId>;
  /// Root-first view of every arrived probe's prefix (built once, at the
  /// destination merge).
  using FlatPrefixes = std::unordered_map<const Probe*, FlatPrefix>;

  /// Validates the request and seeds the initial probes (returns false if
  /// composition is impossible before probing starts).
  bool init_state(ComposeState& state, const service::CompositeRequest& request,
                  Rng& rng);
  /// Coarse inter-community tier: probes community heads for summaries,
  /// greedily selects candidate communities and fills the state's allowed
  /// set. Returns the budget spent (== coarse probe count).
  int coarse_select(ComposeState& state, int budget_total);

  // ---- §4.2: one per-hop step ------------------------------------------
  /// Executes one per-hop step for `probe`: the final leg once its branch
  /// is complete, otherwise discovery (steps 2.2/2.3) then the fan-out
  /// (step 2.4), appending spawned children to `out_children` with their
  /// arrival times set.
  void process_probe(ComposeState& state, Probe probe,
                     std::vector<Probe>* out_children);
  /// Final leg: the stream leaves the branch's last component for the
  /// destination; a probe that survives it lands in state.arrived.
  void finish_at_dest(ComposeState& state, Probe probe);
  /// Step 2.3: orders `candidates` best first by the composite local
  /// next-hop metric.
  void rank_candidates(
      ComposeState& state, const Probe& probe,
      std::vector<const service::ComponentMetadata*>* candidates);
  /// Step 2.4: spawns children toward the first I_k = min(β_k, α_k) of
  /// `ranked`, splitting the probe's budget exactly, and settles the
  /// parent's terminal outcome.
  void fan_out(ComposeState& state, const Probe& probe,
               service::FnNode next_node, double discovery_ms,
               const std::vector<const service::ComponentMetadata*>& ranked,
               std::vector<Probe>* out_children);
  /// Step 2.1 at the receiving peer: accumulates `cand` into the child's
  /// QoS, then checks or soft-reserves the incoming leg's bandwidth and
  /// the candidate's resources. False means the candidate was skipped;
  /// true fills the holds to record on the child's new segment.
  bool admit_child(ComposeState& state, const Probe& parent, Probe& child,
                   const service::ComponentMetadata& cand,
                   service::FnNode next_node, double leg_delay,
                   const overlay::OverlayPathRef& leg_path,
                   std::optional<CoveredHold>* bw_hold,
                   std::optional<CoveredHold>* res_hold);

  // ---- §4.3 and step 4: at the destination ------------------------------
  /// Merge, qualification, ψ ranking, acknowledgement and hold cleanup;
  /// fills state.result.
  void finalize(ComposeState& state);
  /// Step 3: joins arrived probes into candidate graphs that agree on
  /// shared nodes; records probing/discovery time.
  std::vector<MergedGraph> merge_arrivals(ComposeState& state,
                                          FlatPrefixes* flat);
  /// Evaluates each merged graph, keeps the QoS-qualified ones with the
  /// union of their probes' holds, and sorts them by selection_key.
  std::vector<QualifiedGraph> qualify_and_rank(ComposeState& state,
                                               std::vector<MergedGraph>& merged,
                                               const FlatPrefixes& flat);
  /// Step 4: acknowledges the best qualified graph back to the source and
  /// fills the result (best, holds, backups) and setup time.
  void acknowledge_best(ComposeState& state,
                        std::vector<QualifiedGraph>& qualified);
  /// Releases every hold of this request except the best graph's.
  void release_unselected_holds(ComposeState& state);
  /// What the destination minimizes under config_.objective.
  double selection_key(const service::ServiceGraph& graph) const;

  // Trace emitters (no-ops without an attached trace).
  void trace_drop(const Probe& probe, const char* reason);
  void trace_skip(const Probe& parent, service::FnNode node, PeerId host,
                  const char* reason);
  void trace_hold(obs::TraceEvent event, double t, service::FnNode node,
                  HoldId hold);

  const DiscoveryEntry& discover(ComposeState& state, PeerId peer,
                                 service::FunctionId fn);
  /// Attempts delivery of one probe transmission (plus bounded
  /// retransmissions) over `path`, charging stats/budget as it goes.
  HopDelivery deliver_hop(ComposeState& state, const overlay::OverlayPath& path,
                          std::uint64_t hop_key, int* budget);
  /// Accumulates one request's ComposeStats into the metrics registry.
  void flush_metrics(const ComposeStats& stats, bool success);

  Deployment* deployment_;
  AllocationManager* alloc_;
  GraphEvaluator* evaluator_;
  sim::Simulator* sim_;
  BcpConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProbeTrace* trace_ = nullptr;
  const fault::LinkFaultModel* fault_ = nullptr;
  const overlay::CommunityMap* communities_ = nullptr;
  const discovery::CommunityIndex* community_index_ = nullptr;
  ProbeArenaTotals arena_totals_;
};

}  // namespace spider::core
