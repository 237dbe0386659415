// The protocol variants a run can select, each named once: the token that
// bftlab, bftnode and fuzz repro files use, the display name reports and
// parameterized tests print, and the FallbackParams its replicas run.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string_view>

#include "core/fallback.h"

namespace repro::harness {

enum class Protocol {
  kDiemBft,         ///< Figure 1 baseline
  kFallback3,       ///< Figure 2 (3-chain)
  kFallback3Adopt,  ///< Figure 2 + §3 chain-adoption optimization
  kFallback2,       ///< Figure 4 (2-chain)
  kAlwaysFallback,  ///< ACE/VABA-style always-async baseline
};

struct ProtocolInfo {
  Protocol protocol;
  const char* token;  ///< stable: fuzz repro JSON files store it
  const char* name;
  /// nullopt = Figure 1 DiemBFT, which has no fallback.
  std::optional<core::FallbackParams> fallback;
};

/// One row per Protocol value, in enum order.
inline constexpr std::array<ProtocolInfo, 5> kProtocolTable{{
    {Protocol::kDiemBft, "diem", "DiemBFT", std::nullopt},
    {Protocol::kFallback3, "fallback3", "Fallback-3chain", core::FallbackParams{}},
    {Protocol::kFallback3Adopt, "fallback3adopt", "Fallback-3chain+adopt",
     core::FallbackParams{.adoption = true}},
    {Protocol::kFallback2, "fallback2", "Fallback-2chain", core::FallbackParams{.chain_len = 2}},
    {Protocol::kAlwaysFallback, "ace", "AlwaysFallback(ACE-style)",
     core::FallbackParams{.always_fallback = true}},
}};

constexpr const ProtocolInfo& protocol_info(Protocol p) {
  return kProtocolTable[static_cast<std::size_t>(p)];
}
static_assert([] {
  for (std::size_t i = 0; i < kProtocolTable.size(); ++i) {
    if (static_cast<std::size_t>(kProtocolTable[i].protocol) != i) return false;
  }
  return true;
}());

inline const char* protocol_name(Protocol p) { return protocol_info(p).name; }
inline const char* protocol_token(Protocol p) { return protocol_info(p).token; }

/// The variant named `token`, or nullopt if no row has that token.
std::optional<Protocol> parse_protocol(std::string_view token);

/// A replica running variant `p`.
std::unique_ptr<core::IReplica> build_replica(Protocol p, const core::ReplicaContext& ctx);

}  // namespace repro::harness
