// Shared helpers for the figure-reproduction benches: strict argument
// parsing (--quick / --full / --seed N / --jobs N / --metrics-out PATH,
// plus each bench's own flags), table printing.
//
// Figure benches are plain executables (not google-benchmark binaries):
// each one runs a simulation campaign and prints the same rows/series the
// paper's figure reports, so `for b in build/bench/*; do $b; done`
// regenerates the whole evaluation section.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"

namespace spider::bench {

struct BenchArgs {
  /// 0 = quick smoke, 1 = default, 2 = full paper scale.
  int scale = 1;
  std::uint64_t seed = 42;
  /// Campaign cells run `jobs` at a time over a worker pool. Every cell
  /// is a fully isolated world (own simulator, scenario, RNG stream,
  /// metrics registry), so output is byte-identical at any value; 1 (the
  /// default) runs the plain serial loop on the calling thread.
  std::size_t jobs = 1;
  /// When non-empty, the bench writes a MetricsRegistry JSON snapshot of
  /// the campaign's cumulative counters/gauges/histograms to this path.
  std::string metrics_out;
};

/// A bench-specific flag accepted on top of the common ones: a switch
/// (sets the bool), a path (stores the string) or a worker count (stores
/// the number; 0 reads as 1).
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, std::size_t*> target;
};

/// Parses the common flags plus `extra`. An unknown flag, a missing value
/// or a malformed number prints the usage line and exits with status 2,
/// before any work starts.
inline BenchArgs parse_args(int argc, char** argv,
                            const std::vector<Flag>& extra = {}) {
  const auto fail = [&](const char* problem, const char* flag) {
    std::fprintf(stderr,
                 "%s: %s %s\nusage: %s [--quick | --full] [--seed N] "
                 "[--jobs N] [--metrics-out PATH]",
                 argv[0], problem, flag, argv[0]);
    for (const Flag& f : extra) {
      const char* operand = std::holds_alternative<bool*>(f.target) ? ""
                            : std::holds_alternative<std::string*>(f.target)
                                ? " PATH"
                                : " N";
      std::fprintf(stderr, " [%s%s]", f.name, operand);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  };
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) fail("missing value for", argv[i]);
    return argv[++i];
  };
  const auto number = [&](int& i) -> std::uint64_t {
    const char* flag = argv[i];
    const char* text = value(i);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE) {
      fail("expected a non-negative integer for", flag);
    }
    return n;
  };

  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      args.scale = 0;
    } else if (arg == "--full") {
      args.scale = 2;
    } else if (arg == "--seed") {
      args.seed = number(i);
    } else if (arg == "--jobs") {
      args.jobs = std::max<std::size_t>(number(i), 1);
    } else if (arg == "--metrics-out") {
      args.metrics_out = value(i);
    } else {
      const auto f = std::find_if(extra.begin(), extra.end(),
                                  [&](const Flag& e) { return arg == e.name; });
      if (f == extra.end()) fail("unknown flag", argv[i]);
      if (auto* on = std::get_if<bool*>(&f->target)) {
        **on = true;
      } else if (auto* text = std::get_if<std::string*>(&f->target)) {
        **text = value(i);
      } else {
        auto* count = std::get_if<std::size_t*>(&f->target);
        **count = std::max<std::size_t>(number(i), 1);
      }
    }
  }
  return args;
}

/// Writes `metrics` to `args.metrics_out` if set; prints the outcome.
inline void maybe_write_metrics(const BenchArgs& args,
                                const obs::MetricsRegistry& metrics) {
  if (args.metrics_out.empty()) return;
  if (metrics.write_json(args.metrics_out)) {
    std::printf("metrics: wrote %zu instruments to %s\n", metrics.size(),
                args.metrics_out.c_str());
  } else {
    std::fprintf(stderr, "metrics: failed to write %s\n",
                 args.metrics_out.c_str());
  }
}

/// Fixed-width table printer for figure output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf(" %-*s |", int(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      for (std::size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace spider::bench
