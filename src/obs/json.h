// Minimal deterministic JSON emission helpers for the trace writers.
//
// The trace/profile writers need exactly two things a formatting library
// would give them — string escaping (util::json_escape) and stable number
// rendering — and nothing else; keeping them here avoids a dependency and
// guarantees the byte-level determinism the golden trace comparisons rely
// on.
#pragma once

#include <string>

#include "util/units.h"

namespace tgi::obs {

/// Renders a simulated-time instant/extent as Chrome-trace microseconds
/// with fixed 3-digit precision ("1234567.890") — deterministic for
/// bit-identical doubles.
[[nodiscard]] std::string json_microseconds(util::Seconds seconds);

}  // namespace tgi::obs
