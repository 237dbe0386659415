#include "client/client_swarm.h"

#include <algorithm>

#include "common/assert.h"

namespace repro::client {

// ---- TxnPools --------------------------------------------------------------

void TxnPools::submit(ReplicaId to, const TxnId& id, BytesView payload) {
  REPRO_ASSERT(to < queues_.size());
  if (!queued_ids_[to].insert(id).second) return;
  auto& q = queues_[to];
  if (q.size() >= capacity()) {
    queued_ids_[to].erase(q.front().id);
    q.pop_front();
  }
  q.push_back(Pending{id, Bytes(payload.begin(), payload.end())});
}

Bytes TxnPools::next_batch(ReplicaId proposer) {
  REPRO_ASSERT(proposer < queues_.size());
  auto& q = queues_[proposer];
  const std::size_t count = std::min(max_batch_, q.size());
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = q.front();
    enc.raw(BytesView(p.id.data(), p.id.size()));
    enc.bytes(p.payload);
    queued_ids_[proposer].erase(p.id);
    q.pop_front();
  }
  return std::move(enc).result();
}

std::vector<TxnId> TxnPools::decode_txn_ids(BytesView payload) {
  std::vector<TxnId> ids;
  Decoder dec(payload);
  auto count = dec.u32();
  if (!count) return ids;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto raw = dec.raw(32);
    auto body = dec.bytes();
    if (!raw || !body) return ids;
    TxnId id;
    std::copy(raw->begin(), raw->end(), id.begin());
    ids.push_back(id);
  }
  return ids;
}

std::vector<Bytes> TxnPools::decode_txn_payloads(BytesView payload) {
  std::vector<Bytes> out;
  Decoder dec(payload);
  auto count = dec.u32();
  if (!count) return out;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto raw = dec.raw(32);
    auto body = dec.bytes();
    if (!raw || !body) return out;
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
  const TxnId id = crypto::sha256_tagged("repro/txn", payload);

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
  stats_.rpc_bytes += it->second.payload.size() + 32;
  const Bytes payload = it->second.payload;
  exp_.sim().schedule_after(rpc_delay(), [this, id, target, payload] {
    pools_->submit(target, id, payload);
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

std::deque<ClientSwarm::CommittedBatch>::iterator ClientSwarm::committed_batch(
    const smr::Block& block) {
  auto it = std::find_if(batch_memo_.begin(), batch_memo_.end(),
                         [&](const CommittedBatch& b) { return b.block_id == block.id; });
  if (it != batch_memo_.end()) return it;
  if (batch_memo_.size() >= kBatchMemoCap) batch_memo_.pop_front();
  batch_memo_.push_back(CommittedBatch{
      block.id, TxnPools::decode_txn_ids(block.txns()),
      crypto::MerkleTree(TxnPools::decode_txn_payloads(block.txns())), 0});
  return std::prev(batch_memo_.end());
}

void ClientSwarm::on_commit(ReplicaId replica, const smr::Block& block) {
  // The replica commits to the batch with a Merkle tree and attaches an
  // inclusion proof to each acknowledgment.
  const auto batch = committed_batch(block);
  const std::vector<TxnId>& ids = batch->ids;
  const crypto::MerkleTree& tree = batch->tree;
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
  if (const auto& spans = exp_.spans(); spans && spans->enabled()) {
    // Chain tail: the f+1'th ack closes the loop the client opened at
    // submit. Keyed by the committing block so analyze_spans can extend
    // that block's chain to client-perceived latency.
    obs::SpanEvent ev;
    ev.stage = obs::SpanStage::kClientConfirm;
    ev.replica = replica;
    ev.t_us = exp_.sim().now();
    ev.key = block_key;
    ev.aux = latency;
    spans->push(ev);
  }
  in_flight_.erase(it);
}

}  // namespace repro::client
