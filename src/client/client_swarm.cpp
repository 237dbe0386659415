#include "client/client_swarm.h"

#include <algorithm>

#include "common/assert.h"

namespace repro::client {

// ---- TxnPools --------------------------------------------------------------

TxnId txn_id(BytesView body) { return crypto::sha256_tagged("repro/txn", body); }

void TxnPools::submit(ReplicaId to, BytesView body) {
  REPRO_ASSERT(to < queues_.size());
  const TxnId id = txn_id(body);
  if (!queued_ids_[to].insert(id).second) return;
  auto& q = queues_[to];
  if (q.size() >= capacity()) {
    queued_ids_[to].erase(q.front().id);
    q.pop_front();
  }
  q.push_back(Pending{id, Bytes(body.begin(), body.end())});
}

void TxnPools::retire(ReplicaId replica, const std::vector<TxnId>& ids) {
  REPRO_ASSERT(replica < queues_.size());
  auto& queued = queued_ids_[replica];
  std::size_t matched = 0;
  for (const TxnId& id : ids) matched += queued.erase(id);
  if (matched == 0) return;
  // The id set mirrored the queue, so the entries it no longer holds are
  // exactly the retired ones.
  std::erase_if(queues_[replica], [&](const Pending& p) { return !queued.contains(p.id); });
}

Bytes TxnPools::next_batch(ReplicaId proposer) {
  REPRO_ASSERT(proposer < queues_.size());
  auto& q = queues_[proposer];
  auto& queued = queued_ids_[proposer];
  // The queued txns the proposer's own uncommitted chain already carries:
  // proposing them again would commit them twice if that chain commits.
  std::unordered_set<TxnId, TxnIdHash> skip;
  if (pending_ids_ && !q.empty()) {
    std::vector<TxnId> pending;
    pending_ids_(proposer, pending);
    for (const TxnId& id : pending) {
      if (queued.contains(id)) skip.insert(id);
    }
  }
  // queued_ids_ mirrors the queue, so this many txns are not skipped.
  const std::size_t count = std::min(max_batch_, q.size() - skip.size());
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(count));
  std::vector<Pending> kept;
  for (std::size_t taken = 0; taken < count; q.pop_front()) {
    Pending& p = q.front();
    if (skip.contains(p.id)) {
      kept.push_back(std::move(p));
      continue;
    }
    enc.bytes(p.payload);
    queued.erase(p.id);
    ++taken;
  }
  // Skipped txns go back to the front in their order: if their branch is
  // abandoned they are next; if it commits, retire() drops them.
  q.insert(q.begin(), std::make_move_iterator(kept.begin()),
           std::make_move_iterator(kept.end()));
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
  pools_->set_pending_ids(
      [this](ReplicaId proposer, std::vector<TxnId>& out) { pending_ids(proposer, out); });
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
  fl.payload = payload;
  fl.next_target = static_cast<ReplicaId>((client + txn_seq_) % exp_.n());
  in_flight_.emplace(id, std::move(fl));
  ++stats_.submitted;

  send_to_replica(id, in_flight_[id].next_target);
  arm_retry(id);
}

void ClientSwarm::send_to_replica(const TxnId& id, ReplicaId target) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;
  ++stats_.rpc_messages;
  stats_.rpc_bytes += it->second.payload.size();  // the body; its id is derived
  exp_.sim().schedule_after(rpc_delay(), [this, target, payload = it->second.payload] {
    pools_->submit(target, payload);
  });
}

void ClientSwarm::arm_retry(const TxnId& id) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;
  const std::uint64_t epoch = it->second.retry_epoch;
  exp_.sim().schedule_after(cfg_.retry_timeout, [this, id, epoch] {
    auto it2 = in_flight_.find(id);
    if (it2 == in_flight_.end() || it2->second.retry_epoch != epoch) return;
    // Unconfirmed: resend to the next replica (covers a crashed or slow
    // target; eventually an honest proposer includes the txn).
    ++stats_.retries;
    ++it2->second.retry_epoch;
    it2->second.next_target = static_cast<ReplicaId>((it2->second.next_target + 1) % exp_.n());
    send_to_replica(id, it2->second.next_target);
    arm_retry(id);
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

void ClientSwarm::pending_ids(ReplicaId proposer, std::vector<TxnId>& out) {
  // qc_high() is the parent of every regular block and height-1 f-block.
  // Heights 2-3 extend the proposer's own f-blocks, whose txns already
  // left its pool, and below them what usually still is the qc_high()
  // chain (DESIGN.md §20.4).
  const auto* base = dynamic_cast<const core::ReplicaBase*>(&exp_.replica(proposer));
  if (base == nullptr) return;
  const smr::Ledger& ledger = base->ledger();
  for (smr::BlockId at = base->qc_high().block_id; !ledger.is_committed(at);) {
    const smr::Block* block = base->store().get(at);
    if (block == nullptr || block->is_genesis()) return;
    const std::vector<TxnId>& ids = block_batch(*block)->ids;
    out.insert(out.end(), ids.begin(), ids.end());
    at = block->parent.block_id;
  }
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
    ++stats_.rpc_messages;
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
