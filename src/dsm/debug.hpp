// Debug aids shared by the DSM runtime and the protocol engines.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/options.hpp"

namespace anow::dsm {

/// Page selected for protocol-event tracing via ANOW_TRACE_PAGE=<id>
/// (-1 = tracing off).  One cached parse shared by every tracer; a value
/// that is not a page id (an integer >= 0) is a usage error (exit 2).
inline int traced_page() {
  static const int page = [] {
    const char* env = std::getenv("ANOW_TRACE_PAGE");
    if (env == nullptr) return -1;
    std::int64_t id = 0;
    if (!util::parse_int(env, id) || id < 0 || id > INT_MAX) {
      util::usage_error(std::string("ANOW_TRACE_PAGE='") + env +
                        "' expects a page id (an integer >= 0)");
    }
    return static_cast<int>(id);
  }();
  return page;
}

}  // namespace anow::dsm
