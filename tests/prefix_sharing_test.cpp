// Property test for the shared-prefix probe representation
// (core/probe_path.hpp): a randomized probing tree of spawns, drops and
// hold attachments is grown twice in lockstep — once with
// PathArena::append (children share the parent's chain) and once with
// PathArena::clone_append (every child deep-copies it, the old
// representation's cost model). Every live probe's prefix must read the
// same in both arenas: depth, and the FlatPrefix view hop by hop
// (component, leg delay, arrival, holds in order).
//
// BCP reads a probe's prefix only through PathRef::depth(), the leaf() of
// a freshly appended segment (to attach that hop's holds) and FlatPrefix
// at the destination, so equal views mean equal protocol decisions; the
// representations may differ only in memory behaviour, which the test
// bounds too: sharing must allocate strictly fewer segments and peak no
// higher than cloning.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/probe_path.hpp"
#include "util/rng.hpp"

namespace spider::core {
namespace {

/// One live probe, tracked in both representations.
struct Twin {
  PathRef shared;
  PathRef cloned;
};

void expect_same_view(const Twin& t) {
  ASSERT_EQ(t.shared.depth(), t.cloned.depth());
  const FlatPrefix a(t.shared.get());
  const FlatPrefix b(t.cloned.get());
  ASSERT_EQ(a.size(), t.shared.depth());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const PathSegment& x = a.segment(k);
    const PathSegment& y = b.segment(k);
    EXPECT_EQ(x.component.id, y.component.id) << "hop " << k;
    EXPECT_EQ(x.component.host, y.component.host) << "hop " << k;
    EXPECT_EQ(x.leg_delay_ms, y.leg_delay_ms) << "hop " << k;
    EXPECT_EQ(x.arrival_ms, y.arrival_ms) << "hop " << k;
    ASSERT_EQ(x.hold_count, y.hold_count) << "hop " << k;
    for (std::uint8_t h = 0; h < x.hold_count; ++h) {
      EXPECT_EQ(x.holds[h].first, y.holds[h].first) << "hop " << k;
      EXPECT_EQ(x.holds[h].second, y.holds[h].second) << "hop " << k;
    }
  }
}

class PrefixSharingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixSharingProperty, AppendMatchesCloneAppend) {
  constexpr std::uint32_t kMaxDepth = 8;
  constexpr int kSteps = 2000;
  Rng rng(GetParam());
  PathArena shared_arena;
  PathArena cloned_arena;
  {
    std::vector<Twin> live;
    HoldId next_hold = 1;
    service::ComponentId next_component = 0;
    for (int step = 0; step < kSteps; ++step) {
      // A tree that died out is followed by the next request's: seeds
      // start at the source with an empty prefix.
      if (live.empty()) live.resize(3);
      const std::size_t pick = std::size_t(rng.next_below(live.size()));
      const bool can_spawn = live[pick].shared.depth() < kMaxDepth;
      if (!can_spawn || rng.next_bool(0.35)) {
        // Drop: the probe terminates and releases its exclusive suffix.
        std::swap(live[pick], live.back());
        live.pop_back();
        continue;
      }
      // Spawn 1–3 children of the picked probe; like a forwarding BCP
      // parent, it then either stays (sibling spawns later) or goes.
      const int children = int(rng.next_int(1, 3));
      const std::uint32_t depth = live[pick].shared.depth();
      for (int c = 0; c < children; ++c) {
        service::ComponentMetadata meta;
        meta.id = next_component++;
        meta.host = overlay::PeerId(rng.next_below(64));
        const double leg = rng.next_double(0.0, 50.0);
        const double arrival = rng.next_double(0.0, 1000.0);
        Twin child;
        child.shared = shared_arena.append(live[pick].shared.get(), meta, leg,
                                           arrival);
        child.cloned = cloned_arena.clone_append(live[pick].cloned.get(),
                                                 meta, leg, arrival);
        // Holds go on the fresh leaf before anyone shares it: bandwidth
        // on the incoming link (optional), then the node's resources.
        const service::FnNode node = service::FnNode(depth);
        if (rng.next_bool(0.5)) {
          const auto key = HoldCoverKey::edge(node, node + 1);
          child.shared.leaf()->add_hold(key, next_hold);
          child.cloned.leaf()->add_hold(key, next_hold);
          ++next_hold;
        }
        if (rng.next_bool(0.8)) {
          child.shared.leaf()->add_hold(HoldCoverKey::node(node), next_hold);
          child.cloned.leaf()->add_hold(HoldCoverKey::node(node), next_hold);
          ++next_hold;
        }
        live.push_back(std::move(child));
      }
      if (rng.next_bool(0.7)) {
        std::swap(live[pick], live.back());
        live.pop_back();
      }
      if (step % 50 == 0) {
        for (const Twin& t : live) expect_same_view(t);
      }
    }
    for (const Twin& t : live) expect_same_view(t);
  }
  // Every reference is gone: both arenas recycled every segment.
  EXPECT_EQ(shared_arena.live_segments(), 0u);
  EXPECT_EQ(cloned_arena.live_segments(), 0u);
  // Sharing is doing its job: strictly fewer segment allocations than the
  // clone-everything oracle, and a peak no higher.
  EXPECT_LT(shared_arena.segments_allocated(),
            cloned_arena.segments_allocated());
  EXPECT_LE(shared_arena.peak_live_segments(),
            cloned_arena.peak_live_segments());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixSharingProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace spider::core
