// Composite-request specification parser.
//
// The paper has users author function graphs in QoSTalk, an XML-based
// visual environment [13, 23]. As an offline stand-in we provide a
// compact line-oriented text format covering the same request surface:
//
//   # comments and blank lines are ignored
//   edges: ingest -> denoise -> report      # chains expand pairwise
//   edges: ingest -> calibrate -> report    # repeatable; names intern nodes
//   commute: denoise ~ calibrate            # commutation link
//   delay: 2000                             # ms bound (required)
//   loss: 0.05                              # loss-rate bound in [0,1)
//   bandwidth: 300                          # kbps on service links
//   failure: 0.2                            # F^req
//   source-level: 2                         # §2.2 quality levels
//   dest-level: 1
//
// Each distinct function name becomes one graph node (a composite request
// uses a function at most once, matching the workload model). Unknown
// keys, malformed lines, repeated nodes in an edge, or a cyclic result
// produce a descriptive error instead of a partially parsed request.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "service/service_graph.hpp"

namespace spider::service {

struct ParsedRequest {
  /// Graph + QoS bounds; source/dest peers are left unset (the caller
  /// binds them to a deployment).
  CompositeRequest request;
  /// Function name per graph node (node index order), as interned.
  std::vector<std::string> function_names;
};

/// Parses `text`; on success the named functions are interned into
/// `catalog`. On failure returns nullopt and sets `*error` (if non-null)
/// to a one-line description including the offending line number.
std::optional<ParsedRequest> parse_request_spec(const std::string& text,
                                                FunctionCatalog& catalog,
                                                std::string* error = nullptr);

}  // namespace spider::service
