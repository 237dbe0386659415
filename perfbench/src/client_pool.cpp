#include "client_pool.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace perfbench {

void make_txn(std::uint64_t seed, std::uint64_t id, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(id >> (8 * i));
  // SplitMix64 stream keyed by (seed, id).
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull ^ (id + 1) * 0xbf58476d1ce4e5b9ull;
  for (std::size_t off = 8; off < kTxnBytes; off += 8) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(out + off, &z, 8);
  }
}

ClientPool::ClientPool(std::uint64_t seed, double rate_per_s, std::int64_t resubmit_timeout_us,
                       std::uint32_t confirm_quorum)
    : seed_(seed),
      mean_gap_us_(1e6 / rate_per_s),
      resubmit_timeout_us_(resubmit_timeout_us),
      quorum_(confirm_quorum),
      arrivals_(seed ^ 0x636c69656e74ull) {
  txns_.reserve(1 << 17);
}

void ClientPool::start(std::int64_t epoch_us) {
  std::lock_guard lock(mu_);
  next_due_us_ = epoch_us;
}

void ClientPool::stop_arrivals(std::int64_t at_us) {
  std::lock_guard lock(mu_);
  generate_until(at_us - 1);
  stop_us_ = at_us;
}

void ClientPool::generate_until(std::int64_t now_us) {
  while (next_due_us_ <= now_us && next_due_us_ < stop_us_) {
    Txn t;
    t.due_us = next_due_us_;
    txns_.push_back(t);
    // Exponential gap from a 53-bit uniform in (0, 1].
    const double u = (static_cast<double>(arrivals_.next() >> 11) + 1.0) * 0x1.0p-53;
    next_due_us_ += static_cast<std::int64_t>(std::llround(-std::log(u) * mean_gap_us_));
  }
  generated_.store(txns_.size(), std::memory_order_release);
}

std::int64_t ClientPool::resubmit_deadline(std::int64_t now_us, std::uint64_t id,
                                           repro::ReplicaId replica) const {
  std::uint64_t z = seed_ ^ (id + 1) * 0x9e3779b97f4a7c15ull ^
                    (std::uint64_t(replica) + 1) * 0xbf58476d1ce4e5b9ull ^
                    (std::uint64_t(txns_[id].resubmits) + 1) * 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double factor = 0.5 + double(z >> 11) * 0x1.0p-53;
  return now_us + static_cast<std::int64_t>(double(resubmit_timeout_us_) * factor);
}

repro::Bytes ClientPool::drain(std::int64_t now_us, repro::ReplicaId replica) {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lock(mu_);
    Lane& lane = lanes_[replica];
    const std::uint32_t bit = 1u << replica;
    auto wanted = [&](std::uint64_t id) {
      return txns_[id].confirm_us < 0 && (txns_[id].committed_mask & bit) == 0;
    };
    // Transactions drained into blocks that never committed come back.
    while (!lane.in_flight.empty() && lane.in_flight.top().first <= now_us) {
      const std::uint64_t id = lane.in_flight.top().second;
      lane.in_flight.pop();
      if (wanted(id)) {
        ++txns_[id].resubmits;
        ids.push_back(id);
      }
    }
    generate_until(now_us);
    for (; lane.next_undrained < txns_.size(); ++lane.next_undrained) {
      if (wanted(lane.next_undrained)) ids.push_back(lane.next_undrained);
    }
    for (std::uint64_t id : ids) {
      if (txns_[id].first_drain_us < 0) txns_[id].first_drain_us = now_us;
      lane.in_flight.emplace(resubmit_deadline(now_us, id, replica), id);
    }
  }
  repro::Bytes payload(ids.size() * kTxnBytes);
  for (std::size_t i = 0; i < ids.size(); ++i) make_txn(seed_, ids[i], &payload[i * kTxnBytes]);
  return payload;
}

void ClientPool::on_commit(repro::ReplicaId replica, repro::BytesView txns,
                           std::int64_t now_us) {
  if (txns.size() % kTxnBytes != 0) {
    bad_sizes_.fetch_add(1);
    return;
  }
  const std::size_t count = txns.size() / kTxnBytes;
  const std::uint64_t known = generated_.load(std::memory_order_acquire);
  std::vector<std::uint64_t> ids;
  ids.reserve(count);
  std::uint8_t expect[kTxnBytes];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = txns.data() + i * kTxnBytes;
    std::uint64_t id = 0;
    for (int b = 0; b < 8; ++b) id |= std::uint64_t(p[b]) << (8 * b);
    if (id >= known) {
      unknown_ids_.fetch_add(1);
      continue;
    }
    make_txn(seed_, id, expect);
    if (std::memcmp(expect, p, kTxnBytes) != 0) {
      bad_bytes_.fetch_add(1);
      continue;
    }
    ids.push_back(id);
  }
  const std::uint32_t bit = 1u << replica;
  std::lock_guard lock(mu_);
  committed_copies_[replica] += ids.size();
  for (std::uint64_t id : ids) {
    Txn& t = txns_[id];
    if (t.committed_mask & bit) {
      ++duplicate_copies_[replica];
      continue;
    }
    t.committed_mask |= bit;
    if (t.confirm_us < 0 &&
        static_cast<std::uint32_t>(std::popcount(t.committed_mask)) >= quorum_) {
      t.confirm_us = now_us;
    }
  }
}

std::uint64_t ClientPool::unconfirmed_between(std::int64_t from_us, std::int64_t to_us) const {
  std::lock_guard lock(mu_);
  std::uint64_t n = 0;
  for (const Txn& t : txns_) {
    if (t.due_us >= from_us && t.due_us < to_us && t.confirm_us < 0) ++n;
  }
  return n;
}

std::vector<ClientPool::Txn> ClientPool::snapshot() const {
  std::lock_guard lock(mu_);
  return txns_;
}

std::uint64_t ClientPool::committed_copies(repro::ReplicaId replica) const {
  std::lock_guard lock(mu_);
  return committed_copies_[replica];
}

std::uint64_t ClientPool::duplicate_copies(repro::ReplicaId replica) const {
  std::lock_guard lock(mu_);
  return duplicate_copies_[replica];
}

}  // namespace perfbench
