#include "harness/protocol.h"

#include "core/diembft.h"

namespace repro::harness {

std::optional<Protocol> parse_protocol(std::string_view token) {
  for (const ProtocolInfo& info : kProtocolTable) {
    if (token == info.token) return info.protocol;
  }
  return std::nullopt;
}

std::unique_ptr<core::IReplica> build_replica(Protocol p, const core::ReplicaContext& ctx) {
  const auto& fallback = protocol_info(p).fallback;
  if (!fallback) return std::make_unique<core::DiemBftReplica>(ctx);
  return std::make_unique<core::FallbackReplica>(ctx, *fallback);
}

}  // namespace repro::harness
