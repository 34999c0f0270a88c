// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around the benchmark's own calls into the
// program's layers (world build, each compose, each direct layer probe,
// each churn-hook call, TrafficDriver::run). They stay in memory and are
// written out once, when the run ends. With tracing off every call is one
// branch and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< shared by the spans of one request
    double start_ms = 0.0;      ///< since the tracer's epoch
    double end_ms = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// RAII span: opens on construction, closes on destruction. Nested
  /// scopes become children of the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    /// Attaches a counter value recorded at this boundary.
    void count(const std::string& name, double value) {
      if (tracer_ != nullptr) {
        tracer_->spans_[index_].counters.emplace_back(name, value);
      }
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now())
      : enabled_(enabled), epoch_(epoch) {}

  Scope span(const std::string& name, std::uint64_t request = 0) {
    if (!enabled_) return Scope(nullptr, 0);
    Span s;
    s.name = name;
    s.id = ++next_id_;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.request = request;
    s.start_ms = since_epoch(Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
  }

  /// Records a closed child span of the innermost open scope from
  /// timestamps measured elsewhere (the world builder's phase timings).
  void add_child(const std::string& name, double start_ms, double end_ms) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.id = ++next_id_;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.start_ms = start_ms;
    s.end_ms = end_ms;
    spans_.push_back(std::move(s));
  }

  double since_epoch(Clock::time_point t) const {
    return ms_between(epoch_, t);
  }

  /// Self time per span name, in ms: each span's duration minus the time
  /// its direct children cover. Spans are properly nested (single thread,
  /// RAII scopes), so the children's durations simply add up.
  std::map<std::string, double> self_ms_by_name() const {
    std::map<std::uint64_t, double> child_ms;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += (s.end_ms - s.start_ms) - child_ms[s.id];
    }
    return out;
  }

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  void close(std::size_t index) {
    spans_[index].end_ms = since_epoch(Clock::now());
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
