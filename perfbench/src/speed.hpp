// Machine-speed reference for speed-normalized timings.
//
// The shared hosts this benchmark runs on change speed by up to 2x within
// seconds (a fixed CPU loop took 207-417 ms in one 90 s window), so raw
// wall-clock times of one build differ more between batches than any
// change worth detecting. SpeedReference runs a fixed amount of the same
// kind of work the program's hot path does -- single-source Dijkstras --
// on the benchmark's own copy of the overlay graph, interleaved with the
// measured operations. A measured time divided by the reference time
// around it cancels the machine's speed of the moment; multiplied by the
// reference's nominal time it reads as milliseconds at nominal speed.
// The reference code and its inputs belong to the benchmark, so a change
// to the program cannot move it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "overlay/overlay.hpp"
#include "tracer.hpp"
#include "util/hash.hpp"

namespace perfbench {

class SpeedReference {
 public:
  /// Copies the overlay's links once; each sample runs `trees` Dijkstras
  /// from a fixed cycle of 64 sources. `nominal_ms` is the time one
  /// sample takes at the speed the bounds were set at.
  SpeedReference(const spider::overlay::OverlayNetwork& ov, std::size_t trees,
                 double nominal_ms)
      : trees_(trees), nominal_ms_(nominal_ms) {
    const std::size_t n = ov.peer_count();
    offsets_.push_back(0);
    for (spider::overlay::PeerId p = 0; p < n; ++p) {
      for (const auto& adj : ov.neighbors(p)) {
        targets_.push_back(adj.neighbor);
        weights_.push_back(ov.link(adj.link).delay_ms);
      }
      offsets_.push_back(std::uint32_t(targets_.size()));
    }
    init_sources(n);
  }

  /// The same reference on a fixed graph of the benchmark's own, for
  /// timing work that runs before any overlay exists: a ring of `nodes`
  /// nodes, each also linked to four hash-drawn others, with hash-drawn
  /// delays in [1, 100) ms.
  SpeedReference(std::size_t nodes, std::size_t trees, double nominal_ms)
      : trees_(trees), nominal_ms_(nominal_ms) {
    offsets_.push_back(0);
    for (std::uint64_t u = 0; u < nodes; ++u) {
      for (std::uint64_t k = 0; k < 5; ++k) {
        targets_.push_back(std::uint32_t(
            k == 0 ? (u + 1) % nodes
                   : spider::util::hash_values(0x9a1fu, u, k) % nodes));
        weights_.push_back(
            1.0 + double(spider::util::hash_values(0x9a2fu, u, k) % 9900) / 100.0);
      }
      offsets_.push_back(std::uint32_t(targets_.size()));
    }
    init_sources(nodes);
  }

  /// Runs one sample and returns its wall time in ms.
  double sample() {
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < trees_; ++t) {
      run_tree(sources_[next_]);
      next_ = (next_ + 1) % sources_.size();
    }
    const double ms = ms_between(t0, Clock::now());
    samples_ms_.push_back(ms);
    return ms;
  }

  double nominal_ms() const { return nominal_ms_; }
  const std::vector<double>& samples_ms() const { return samples_ms_; }
  /// Sum of all distances computed, so the work cannot be optimized away.
  double checksum() const { return checksum_; }

 private:
  void run_tree(std::uint32_t src) {
    std::fill(dist_.begin(), dist_.end(), kUnreached);
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist_[src] = 0.0;
    heap.push({0.0, src});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist_[u]) continue;
      for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const double nd = d + weights_[e];
        if (nd < dist_[targets_[e]]) {
          dist_[targets_[e]] = nd;
          heap.push({nd, targets_[e]});
        }
      }
    }
    for (double d : dist_) {
      if (d != kUnreached) checksum_ += d;
    }
  }

  void init_sources(std::size_t n) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      sources_.push_back(std::uint32_t(spider::util::hash_values(0x5beedu, k) % n));
    }
    dist_.assign(n, 0.0);
  }

  static constexpr double kUnreached = 1e300;
  std::size_t trees_;
  double nominal_ms_;
  std::vector<std::uint32_t> offsets_, targets_, sources_;
  std::vector<double> weights_, dist_, samples_ms_;
  std::size_t next_ = 0;
  double checksum_ = 0.0;
};

/// Scales each measured time to nominal speed by the mean reference
/// sample in a window of +-`half_window` positions around it
/// (`reference[i]` was taken right after `measured[i]`).
inline std::vector<double> normalize(const std::vector<double>& measured,
                                     const std::vector<double>& reference,
                                     double nominal_ms,
                                     std::size_t half_window) {
  std::vector<double> out(measured.size());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const std::size_t lo = i > half_window ? i - half_window : 0;
    const std::size_t hi = std::min(reference.size(), i + half_window + 1);
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += reference[j];
    out[i] = measured[i] * nominal_ms / (sum / double(hi - lo));
  }
  return out;
}

/// Times one cold set-up, from process start to the end of the workload's
/// set-up, at nominal machine speed. A set-up is one call into the world
/// builder, so no reference can run inside it; instead reference samples
/// on the benchmark's own graph are taken right before the world build
/// and right after set-up ends, and the set-up's raw time (less the
/// reference's own) is scaled by their mean.
class SetupTimer {
 public:
  static constexpr std::size_t kSamples = 3;  ///< before, and again after

  explicit SetupTimer(Clock::time_point process_start)
      : start_(process_start), reference_(4000, 24, kNominalMs) {
    for (std::size_t k = 0; k < kSamples; ++k) reference_.sample();
    own_ms_ = ms_between(own_start_, Clock::now());
  }

  /// Ends the set-up; returns {raw, normalized} set-up time in seconds.
  std::pair<double, double> finish() {
    const double raw_ms = ms_between(start_, Clock::now()) - own_ms_;
    for (std::size_t k = 0; k < kSamples; ++k) reference_.sample();
    return {raw_ms / 1000.0, raw_ms * kNominalMs / reference_ms() / 1000.0};
  }

  /// Mean reference sample of the set-up, in ms (raw machine speed).
  double reference_ms() const {
    double sum = 0.0;
    for (double ms : reference_.samples_ms()) sum += ms;
    return sum / double(reference_.samples_ms().size());
  }

 private:
  static constexpr double kNominalMs = 28.0;
  Clock::time_point start_;
  Clock::time_point own_start_ = Clock::now();  ///< before reference_ is built
  SpeedReference reference_;
  double own_ms_ = 0.0;
};

}  // namespace perfbench
