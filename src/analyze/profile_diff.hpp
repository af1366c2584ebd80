#pragma once

/// \file profile_diff.hpp
/// Structured diff of two `qplace.profile.v1` documents (obs/profile.hpp).
///
/// The comparison mirrors analyze.hpp's run-report diff split:
///
///  - The **deterministic** half -- per-node counter attribution -- is
///    compared exactly through drift.hpp (DriftGate::kBothWays). Any node
///    path present on only one side, or any counter that drifts beyond the
///    tolerance, gates the diff (CLI exit 1). Under the docs/PARALLEL.md
///    contract two profiles of the same instance at any thread counts must
///    show zero drift.
///  - The **nondeterministic** half -- per-node wall time -- is reported as
///    ratios and only gated when the caller opts in with a wall tolerance
///    (by default wall drift is informational, like the report's timers).
///
/// Like diff_run_reports, profiles of different instances are refused
/// (digest_conflict).

#include <string>
#include <vector>

#include "analyze/drift.hpp"
#include "obs/json.hpp"

namespace qp::obs {

/// A node path present in only one profile's deterministic tree --
/// structural drift, gated like an infinite counter drift.
struct ProfileStructureDiff {
  std::string path;
  bool in_base = false;
  bool in_cand = false;
};

struct ProfileDiff {
  /// Non-empty when the documents are not comparable (schema mismatch,
  /// disagreeing instance digests); every other field is then unset.
  std::string error;

  std::vector<ProfileStructureDiff> structure;  // deterministic -- gated
  /// One entry per counter per common node path (CounterDrift::scope).
  std::vector<CounterDrift> counters;           // deterministic -- gated
  /// Nodes in both profiles; informational unless the caller gates them.
  std::vector<WallDiff> walls;                  // nondeterministic

  /// Largest counter drift under DriftGate::kBothWays; +infinity on any
  /// structural drift or non-zero one-sided counter.
  double max_deterministic_drift() const;
  bool deterministic_ok(double tolerance) const {
    return error.empty() && max_deterministic_drift() <= tolerance;
  }
  /// Largest wall drift across common nodes (0 when there are none).
  double max_wall_drift() const;
};

/// Diffs two parsed `qplace.profile.v1` documents.
ProfileDiff diff_profiles(const json::Value& base, const json::Value& cand);

}  // namespace qp::obs
