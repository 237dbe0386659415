#include "harness/invariants.h"

#include <map>
#include <optional>
#include <set>

#include "core/replica_base.h"

namespace repro::harness {
namespace {

std::string hex8(const smr::BlockId& id) {
  return to_hex(BytesView(id.data(), 4));
}

}  // namespace

InvariantReport check_invariants(const Experiment& exp) {
  InvariantReport report;

  // ---- gather global state from honest replicas ------------------------
  std::vector<const core::ReplicaBase*> honest;
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    if (!exp.is_honest(id)) continue;
    honest.push_back(dynamic_cast<const core::ReplicaBase*>(&exp.replica(id)));
  }
  if (honest.empty()) return report;

  // Union of coin-QCs: view -> elected leader.
  std::map<View, ReplicaId> leaders;
  for (const auto* r : honest) {
    for (const auto& [view, coin] : r->coins()) {
      if (!verify_coin_qc(exp.crypto_sys(), coin.qc)) {
        report.fail("invalid coin-QC stored at replica " + std::to_string(r->id()));
        continue;
      }
      const ReplicaId leader = coin.qc.leader(exp.crypto_sys());
      if (coin.leader != leader) {
        report.fail("memoized coin leader disagrees with its coin-QC at replica " +
                    std::to_string(r->id()));
      }
      leaders.emplace(view, leader);
    }
  }

  auto endorsed = [&leaders](const smr::Certificate& c) {
    if (c.kind != smr::CertKind::kFallback) return false;
    auto it = leaders.find(c.view);
    return it != leaders.end() && it->second == c.proposer;
  };

  // Dedupe certificates by identity. Certificates live in two places: the
  // system's audit, which keeps each one with the replicas that recorded
  // it, and embedded as the parent field of stored block bodies (the only
  // form in which a crash-recovered replica holds the certificates of
  // backfilled ancestors). Only what an honest replica recorded is
  // examined: a Byzantine one may record anything.
  std::set<std::tuple<std::uint8_t, smr::BlockId, Round, View, FallbackHeight, ReplicaId>>
      seen;
  std::vector<smr::Certificate> certs;
  std::set<smr::BlockId> certified_ids;
  auto collect = [&](const smr::Certificate& c) {
    if (c.kind == smr::CertKind::kGenesis) return;
    auto key = std::make_tuple(static_cast<std::uint8_t>(c.kind), c.block_id, c.round,
                               c.view, c.height, c.proposer);
    if (!seen.insert(key).second) return;
    certs.push_back(c);
    certified_ids.insert(c.block_id);
  };
  const smr::CertAudit& audit = exp.audit();
  for (std::size_t i = 0; i < audit.size(); ++i) {
    for (const auto* r : honest) {
      if (!audit.recorded_by(i, r->id())) continue;
      collect(audit.certificate(i));
      break;
    }
  }
  std::set<smr::BlockId> walked;
  for (const auto* r : honest) {
    for (const auto& rec : r->ledger().records()) {
      // Walk each committed chain once; every block's parent field is a
      // certificate for its ancestor.
      if (!walked.insert(rec.id).second) continue;
      if (const smr::Block* b = r->store().get(rec.id)) collect(b->parent);
    }
  }

  report.certificates_examined = certs.size();

  // A block pruned from every live store is still checked through the
  // payload-free header its retirement left in the audit.
  auto find_block = [&](const smr::BlockId& id) -> std::optional<smr::BlockHeader> {
    for (const auto* r : honest) {
      if (const smr::Block* b = r->store().get(id)) return smr::BlockHeader::of(*b);
    }
    if (const smr::BlockHeader* h = audit.header(id)) return *h;
    return std::nullopt;
  };

  // ---- Lemma 1: unique certified block per (view, round) ----------------
  {
    std::map<std::pair<View, Round>, std::set<smr::BlockId>> regular;
    std::map<std::pair<View, Round>, std::set<smr::BlockId>> endorsed_blocks;
    for (const auto& c : certs) {
      if (c.kind == smr::CertKind::kQuorum) {
        regular[{c.view, c.round}].insert(c.block_id);
      } else if (endorsed(c)) {
        endorsed_blocks[{c.view, c.round}].insert(c.block_id);
      }
    }
    for (const auto& [key, ids] : regular) {
      if (ids.size() > 1) {
        report.fail("Lemma 1: " + std::to_string(ids.size()) +
                    " distinct certified regular blocks at view " +
                    std::to_string(key.first) + " round " + std::to_string(key.second));
      }
    }
    for (const auto& [key, ids] : endorsed_blocks) {
      if (ids.size() > 1) {
        report.fail("Lemma 1: " + std::to_string(ids.size()) +
                    " distinct endorsed f-blocks at view " + std::to_string(key.first) +
                    " round " + std::to_string(key.second));
      }
    }
  }

  // ---- Lemma 2: chain edges of certified blocks -------------------------
  // Consecutive rounds hold only for the fallback protocols, whose vote
  // rule adds r == qc.r + 1 (Fig 2); DiemBFT legitimately skips rounds
  // after a TC, so only monotonicity applies there.
  const auto& fallback = protocol_info(exp.config().protocol).fallback;
  const bool consecutive_rounds = fallback.has_value();
  for (const smr::BlockId& id : certified_ids) {
    const auto b = find_block(id);
    if (!b) {
      // No honest replica holds this block or its header (a certificate
      // whose body never arrived anywhere): its edge goes unchecked.
      ++report.certified_blocks_unchecked;
      continue;
    }
    if (b->is_genesis()) continue;
    const smr::Certificate& parent = b->parent;
    if (consecutive_rounds ? (b->round != parent.round + 1) : (b->round <= parent.round)) {
      report.fail("Lemma 2: certified block " + hex8(id) + " at round " +
                  std::to_string(b->round) + " has parent round " +
                  std::to_string(parent.round));
    }
    if (b->view < parent.view) {
      report.fail("Lemma 2: certified block " + hex8(id) + " has decreasing view");
    }
    if (b->height == 0 && parent.kind == smr::CertKind::kFallback &&
        b->view == parent.view && endorsed(parent)) {
      report.fail("Lemma 2: endorsed f-block parents a regular block of the same view");
    }
  }

  // ---- Lemma 3: endorsed f-blocks of one view form one chain ------------
  // Holds verbatim only for the base Figure-2 protocol where every replica
  // builds exclusively its own fallback-chain. Under chain adoption (§3 /
  // Figure 4) the elected leader's height-(h+1) f-block may extend another
  // replica's height-h f-block, so its endorsed blocks need not chain;
  // safety then rests on Lemma 1 (per-(view,round) uniqueness, enforced by
  // the strictly-increasing r̄_vote[j] voting rule) plus commit adjacency —
  // a commit pair through a foreign, non-endorsed parent never counts.
  if (!fallback || !fallback->adoption_enabled()) {
    std::map<View, std::map<Round, smr::BlockHeader>> per_view;
    for (const auto& c : certs) {
      if (!endorsed(c)) continue;
      if (const auto b = find_block(c.block_id)) per_view[c.view].emplace(c.round, *b);
    }
    for (const auto& [view, by_round] : per_view) {
      const smr::BlockHeader* prev = nullptr;
      for (const auto& [round, block] : by_round) {
        if (prev != nullptr && block.parent.block_id != prev->id) {
          report.fail("Lemma 3: endorsed f-blocks of view " + std::to_string(view) +
                      " do not form a single chain at round " + std::to_string(round));
        }
        prev = &block;
      }
    }
  }

  // ---- committed blocks are certified somewhere -------------------------
  for (const auto* r : honest) {
    for (const auto& rec : r->ledger().records()) {
      if (certified_ids.count(rec.id) == 0) {
        report.fail("commit: block " + hex8(rec.id) + " committed at replica " +
                    std::to_string(r->id()) + " without any known certificate");
      }
    }
  }

  return report;
}

}  // namespace repro::harness
