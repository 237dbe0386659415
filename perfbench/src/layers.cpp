#include "layers.h"

#include "ladder.h"

namespace perfbench {

HandlerTally report_common_layers(const std::vector<const LayerCounters*>& counters,
                                  const std::function<double(const char*)>& delta,
                                  double blocks, double replicas, double seconds,
                                  const repro::crypto::CryptoSystem& crypto, std::uint32_t n,
                                  RunResult& result) {
  MetricSet& m = result.layers;
  HandlerTally tally;
  std::array<double, 16> handler_ns{};
  PayloadSamples samples;
  for (const LayerCounters* c : counters) {
    for (int t = 0; t < 16; ++t) {
      tally.calls[t] += c->handler_calls[t];
      tally.bytes[t] += c->handler_bytes[t];
      handler_ns[t] += double(c->handler_ns[t]);
      tally.handler_ns += double(c->handler_ns[t]);
      for (const auto& s : c->samples[t]) {
        if (samples[t].size() < LayerCounters::kSamplesPerType) samples[t].push_back(s);
      }
    }
    for (std::uint32_t ns : c->wal_append_ns) tally.wal_ns += ns;
  }
  double calls = 0;
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    m.set(std::string("core.handler_us_per_block.") + kMsgTypeNames[t],
          handler_ns[t] / 1e3 / blocks, "us");
    calls += double(tally.calls[t]);
  }
  // Sizes the sensitivity check's planted busy-wait (see NOTES.md).
  result.notes.push_back("handler calls per block (all replicas): " +
                         std::to_string(calls / blocks));
  m.set("core.fallback_ms_mean",
        ratio(delta("repro_fallback_time_us_total"), delta("repro_fallbacks_exited_total")) / 1e3,
        "ms");
  m.set("core.fallbacks_per_s", delta("repro_fallbacks_entered_total") / replicas / seconds,
        "1/s");

  const double dh = delta("repro_decode_hits_total"), dm = delta("repro_decode_misses_total");
  m.set("smr.decode_cache_hit_frac", ratio(dh, dh + dm), "frac");
  const double rh = delta("repro_batch_ref_hits_total"), rm = delta("repro_batch_ref_misses_total");
  m.set("smr.batch_ref_miss_frac", ratio(rm, rh + rm), "frac");
  m.set("smr.batches_pulled_per_block", delta("repro_batches_pulled_total") / blocks, "count");

  m.set("crypto.shares_per_block",
        (delta("repro_shares_verified_total") + delta("repro_shares_deferred_total")) / blocks,
        "count");
  const double ch = delta("repro_cert_verify_hits_total");
  const double cm = delta("repro_cert_verify_misses_total");
  m.set("crypto.cert_cache_hit_frac", ratio(ch, ch + cm), "frac");
  const double co = delta("repro_combines_optimistic_total");
  const double cf = delta("repro_combine_fallbacks_total");
  m.set("crypto.combine_fallback_frac", ratio(cf, co + cf), "frac");
  tally.combines = static_cast<std::uint64_t>(co + cf);

  RungCosts n4, n16;
  ladder_codec(samples, crypto, result, n == 16 ? n16 : n4);
  ladder_crypto(result, n4, n16);
  ladder_transport(result);
  m.set("ladder.handler_coverage", handler_coverage(tally, n == 16 ? n16 : n4), "frac");
  return tally;
}

void LayerCounters::capture(repro::ReplicaId from, const repro::Bytes& payload) {
  auto& bucket = samples[msg_tag(payload)];
  if (bucket.size() < kSamplesPerType) bucket.emplace_back(from, payload);
}

void burn_cpu_ns(std::uint64_t ns) {
  const std::int64_t until = thread_cpu_ns() + static_cast<std::int64_t>(ns);
  while (thread_cpu_ns() < until) {
  }
}

void TracedReplica::on_message(repro::ReplicaId from, const repro::Bytes& payload) {
  c_->handle(from, payload, [&] { inner_->on_message(from, payload); });
}

void TracedReplica::on_message_keyed(repro::ReplicaId from, const repro::Bytes& payload,
                                     const repro::crypto::Digest& key) {
  c_->handle(from, payload, [&] { inner_->on_message_keyed(from, payload, key); });
}

void TracedReplica::on_message_uncached(repro::ReplicaId from, const repro::Bytes& payload) {
  c_->handle(from, payload, [&] { inner_->on_message_uncached(from, payload); });
}

void TracedNetwork::send(repro::ReplicaId from, repro::ReplicaId to,
                         repro::SharedBytes payload) {
  if (!c_->on()) {
    inner_->send(from, to, std::move(payload));
    return;
  }
  const std::int64_t t0 = thread_cpu_ns();
  inner_->send(from, to, std::move(payload));
  c_->send_ns += static_cast<std::uint64_t>(thread_cpu_ns() - t0);
  ++c_->send_calls;
}

void TracedNetwork::multicast(repro::ReplicaId from, repro::SharedBytes payload) {
  if (!c_->on()) {
    inner_->multicast(from, std::move(payload));
    return;
  }
  const std::int64_t t0 = thread_cpu_ns();
  inner_->multicast(from, std::move(payload));
  c_->send_ns += static_cast<std::uint64_t>(thread_cpu_ns() - t0);
  ++c_->send_calls;
}

repro::sim::EventId TracedExecutor::schedule_at(repro::SimTime t, std::function<void()> cb) {
  LayerCounters* c = c_;
  return inner_->schedule_at(t, [c, cb = std::move(cb)] {
    if (!c->on()) {
      cb();
      return;
    }
    const std::int64_t t0 = thread_cpu_ns();
    cb();
    c->timer_ns += static_cast<std::uint64_t>(thread_cpu_ns() - t0);
    ++c->timer_calls;
  });
}

void TracedWal::append(repro::BytesView record) {
  if (!c_->on()) {
    inner_->append(record);
    return;
  }
  const std::int64_t t0 = mono_ns();
  inner_->append(record);
  c_->wal_append_ns.push_back(static_cast<std::uint32_t>(mono_ns() - t0));
  ++c_->wal_appends;
  c_->wal_bytes += record.size();
}

}  // namespace perfbench
