// Global protocol invariants — the paper's lemmas as machine-checked
// properties over the *union* of all honest replicas' observed state.
//
// The per-run safety check (ledger prefix consistency) catches end-to-end
// divergence; these checks catch the intermediate structural properties
// the proofs rely on, so a bug that hasn't yet produced divergent commits
// still fails loudly:
//   Lemma 1 — at most one certified block per (view, round) for regular
//             QCs, and per (view, round) among endorsed f-QCs;
//   Lemma 2 — every certified chain edge has consecutive rounds and
//             nondecreasing views, and (same view) no f-block parents a
//             regular block;
//   Lemma 3 — endorsed f-blocks of one view form a single chain;
//   commit  — every committed block is certified or endorsed somewhere.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace repro::harness {

struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;
  /// Distinct non-genesis certificates the lemmas were checked over.
  std::size_t certificates_examined = 0;
  /// Certified blocks that no honest replica holds live and that have no
  /// retired header in the audit: the Lemma 2/3 checks skip their edges.
  /// Not a violation, but anything above 0 means the checks saw less
  /// than the certificates.
  std::size_t certified_blocks_unchecked = 0;

  void fail(std::string v) {
    ok = false;
    violations.push_back(std::move(v));
  }
};

/// Runs all structural checks against every honest replica's block store
/// and the system's certificate audit: the certificates honest replicas
/// recorded and the headers of pruned certified blocks (plus coin-QCs
/// reconstructible from the stores).
InvariantReport check_invariants(const Experiment& exp);

}  // namespace repro::harness
