#include "client/client_swarm.h"

#include <algorithm>

#include "common/assert.h"

namespace repro::client {

// ---- TxnPools --------------------------------------------------------------

TxnId txn_id(BytesView body) { return crypto::sha256_tagged("repro/txn", body); }

void TxnPools::submit(const std::vector<ReplicaId>& to, BytesView body) {
  const TxnId id = txn_id(body);
  for (ReplicaId r : to) {
    REPRO_ASSERT(r < queues_.size());
    if (retired_[r].ids.contains(id) || !queued_ids_[r].insert(id).second) continue;
    auto& q = queues_[r];
    if (q.size() >= capacity()) {
      queued_ids_[r].erase(q.front().id);
      q.pop_front();
    }
    q.push_back(Pending{id, Bytes(body.begin(), body.end())});
  }
}

void TxnPools::retire(ReplicaId replica, const std::vector<TxnId>& ids) {
  REPRO_ASSERT(replica < queues_.size());
  Retired& retired = retired_[replica];
  auto& queued = queued_ids_[replica];
  std::size_t matched = 0;
  for (const TxnId& id : ids) {
    matched += queued.erase(id);
    if (!retired.ids.insert(id).second) continue;
    retired.order.push_back(id);
    if (retired.order.size() > kRetiredBatches * max_batch_) {
      retired.ids.erase(retired.order.front());
      retired.order.pop_front();
    }
  }
  if (matched == 0) return;
  // The id set mirrored the queue, so the entries it no longer holds are
  // exactly the retired ones.
  std::erase_if(queues_[replica], [&](const Pending& p) { return !queued.contains(p.id); });
}

Bytes TxnPools::next_batch(ReplicaId proposer) {
  REPRO_ASSERT(proposer < queues_.size());
  const auto& q = queues_[proposer];
  const auto& queued = queued_ids_[proposer];
  // The queued txns the chain the new block extends already carries:
  // proposing them again would commit them twice if that chain commits.
  // A chain cut by a missing block could carry any txn: propose none.
  std::unordered_set<TxnId, TxnIdHash> skip;
  bool cut = false;
  if (pending_ids_ && !q.empty()) {
    std::vector<TxnId> pending;
    cut = !pending_ids_(proposer, pending);
    for (const TxnId& id : pending) {
      if (queued.contains(id)) skip.insert(id);
    }
  }
  // queued_ids_ mirrors the queue, so this many txns are not skipped.
  const std::size_t count = cut ? 0 : std::min(max_batch_, q.size() - skip.size());
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(count));
  std::size_t taken = 0;
  for (auto it = q.begin(); taken < count; ++it) {
    if (skip.contains(it->id)) continue;
    enc.bytes(it->payload);
    ++taken;
  }
  return std::move(enc).result();
}

std::vector<TxnId> TxnPools::decode_txn_ids(BytesView payload) {
  std::vector<TxnId> ids;
  for (const Bytes& body : decode_txn_payloads(payload)) ids.push_back(txn_id(body));
  return ids;
}

std::vector<Bytes> TxnPools::decode_txn_payloads(BytesView payload) {
  std::vector<Bytes> out;
  Decoder dec(payload);
  auto count = dec.u32();
  if (!count) return out;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto body = dec.bytes();
    if (!body) return out;
    out.push_back(std::move(*body));
  }
  return out;
}

// ---- ClientSwarm -----------------------------------------------------------

ClientSwarm::ClientSwarm(harness::Experiment& exp, std::shared_ptr<TxnPools> pools,
                         ClientConfig cfg, std::uint64_t seed)
    : exp_(exp), pools_(std::move(pools)), cfg_(cfg), rng_(seed) {
  for (ReplicaId id = 0; id < exp_.n(); ++id) {
    exp_.replica(id).ledger().set_commit_callback(
        [this, id](const smr::Block& block, SimTime) { on_commit(id, block); });
  }
  pools_->set_pending_ids([this](ReplicaId proposer, std::vector<TxnId>& out) {
    return pending_ids(proposer, out);
  });
}

void ClientSwarm::start() {
  for (std::uint32_t c = 0; c < cfg_.num_clients; ++c) {
    exp_.sim().schedule_after(rng_.uniform_range(0, cfg_.submit_interval),
                              [this, c] { client_tick(c); });
  }
}

SimTime ClientSwarm::rpc_delay() {
  return rng_.uniform_range(cfg_.rpc_min_delay, cfg_.rpc_max_delay);
}

void ClientSwarm::client_tick(std::uint32_t client) {
  submit_txn(client);
  exp_.sim().schedule_after(cfg_.submit_interval, [this, client] { client_tick(client); });
}

void ClientSwarm::submit_txn(std::uint32_t client) {
  // Deterministic unique payload per txn.
  Encoder enc;
  enc.u32(client);
  enc.u64(txn_seq_++);
  while (enc.size() < cfg_.txn_bytes) enc.u64(rng_.next());
  Bytes payload = std::move(enc).result();
  payload.resize(cfg_.txn_bytes);
  const TxnId id = txn_id(payload);

  InFlight fl;
  fl.client = client;
  fl.submitted_at = exp_.sim().now();
  fl.payload = std::move(payload);
  ++stats_.submitted;
  send(in_flight_.emplace(id, std::move(fl)).first->second);
  arm_retry(id, cfg_.retry_timeout);
}

void ClientSwarm::send(const InFlight& fl) {
  std::vector<ReplicaId> targets;
  for (ReplicaId r = 0; r < exp_.n(); ++r) {
    if (!fl.acks.contains(r)) targets.push_back(r);
  }
  stats_.requests += targets.size();
  stats_.rpc_bytes += targets.size() * fl.payload.size();  // the body; its id is derived
  exp_.sim().schedule_after(rpc_delay(),
                            [this, targets = std::move(targets), payload = fl.payload] {
                              pools_->submit(targets, payload);
                            });
}

void ClientSwarm::arm_retry(const TxnId& id, SimTime delay) {
  exp_.sim().schedule_after(delay, [this, id, delay] {
    auto it = in_flight_.find(id);
    if (it == in_flight_.end()) return;
    // Unconfirmed: every pool holds the txn until its replica commits it
    // (DESIGN.md §20.5), so this is a backstop for a pool that lost it
    // (the cap) or an RPC to a replica that was down.
    ++stats_.retries;
    send(it->second);
    arm_retry(id, 2 * delay);
  });
}

std::deque<ClientSwarm::BlockBatch>::iterator ClientSwarm::block_batch(const smr::Block& block) {
  auto it = std::find_if(batch_memo_.begin(), batch_memo_.end(),
                         [&](const BlockBatch& b) { return b.block_id == block.id; });
  if (it != batch_memo_.end()) return it;
  if (batch_memo_.size() >= kBatchMemoCap) batch_memo_.pop_front();
  batch_memo_.push_back(BlockBatch{block.id, TxnPools::decode_txn_ids(block.txns()), {}, 0});
  return std::prev(batch_memo_.end());
}

bool ClientSwarm::pending_ids(ReplicaId proposer, std::vector<TxnId>& out) {
  // The block the proposal extends: qc_high() for a regular block or a
  // height-1 f-block, the proposer's own f-block below heights 2-3
  // (DESIGN.md §20.4).
  const auto* base = dynamic_cast<const core::ReplicaBase*>(&exp_.replica(proposer));
  if (base == nullptr) return true;
  const smr::Ledger& ledger = base->ledger();
  for (smr::BlockId at = base->payload_parent(); !ledger.is_committed(at);) {
    const smr::Block* block = base->store().get(at);
    if (block == nullptr) return false;
    if (block->is_genesis()) return true;
    const std::vector<TxnId>& ids = block_batch(*block)->ids;
    out.insert(out.end(), ids.begin(), ids.end());
    at = block->parent.block_id;
  }
  return true;
}

void ClientSwarm::on_commit(ReplicaId replica, const smr::Block& block) {
  // The replica commits to the batch with a Merkle tree and attaches an
  // inclusion proof to each acknowledgment.
  const auto batch = block_batch(block);
  if (!batch->tree) batch->tree.emplace(TxnPools::decode_txn_payloads(block.txns()));
  const std::vector<TxnId>& ids = batch->ids;
  // The committing replica will not propose these again (DESIGN.md §20).
  pools_->retire(replica, ids);
  const crypto::MerkleTree& tree = *batch->tree;
  const std::uint64_t block_key = crypto::digest_prefix_u64(block.id);
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    const TxnId id = ids[i];
    const crypto::Digest root = tree.root();
    const crypto::MerkleProof proof = tree.prove(i);
    ++stats_.acks;
    // ack: txn id + root + proof (index + 33 bytes/step).
    stats_.rpc_bytes += 32 + 32 + 8 + proof.steps.size() * 33;
    exp_.sim().schedule_after(rpc_delay(), [this, replica, id, block_key, root, proof] {
      deliver_ack(replica, id, block_key, root, proof);
    });
  }
  if (++batch->commits == exp_.n()) batch_memo_.erase(batch);
}

void ClientSwarm::deliver_ack(ReplicaId replica, const TxnId& id, std::uint64_t block_key,
                              const crypto::Digest& root, const crypto::MerkleProof& proof) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;
  if (!crypto::MerkleTree::verify(root, it->second.payload, proof)) {
    ++stats_.bad_proofs;  // a lying replica cannot contribute to the quorum
    return;
  }
  it->second.acks.insert(replica);
  const std::uint32_t needed = QuorumParams::for_n(exp_.n()).coin_quorum();  // f + 1
  if (it->second.acks.size() < needed) return;
  const SimTime latency = exp_.sim().now() - it->second.submitted_at;
  stats_.confirm_latencies_us.push_back(latency);
  ++stats_.confirmed;
  if (obs::TraceRing* ring = exp_.trace_ring(replica)) {
    // Chain tail: the f+1'th ack closes the loop the client opened at
    // submit. Keyed by the committing block so analyze_spans can extend
    // that block's chain to client-perceived latency.
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kClientConfirm;
    ev.replica = replica;
    ev.t_us = exp_.sim().now();
    ev.key = block_key;
    ev.aux = latency;
    ring->push(ev);
  }
  in_flight_.erase(it);
}

}  // namespace repro::client
