// The protocol table (harness/protocol.h) is the one place a variant's
// token, display name and FallbackParams are written down. bftlab, bftnode
// and the fuzzer's repro-file reader all parse tokens with parse_protocol
// and build replicas with build_replica, so these tests cover each of them.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/experiment.h"

namespace repro::harness {
namespace {

TEST(ProtocolTable, EveryTokenParsesBackToItsProtocol) {
  std::set<std::string> tokens, names;
  for (const ProtocolInfo& info : kProtocolTable) {
    EXPECT_EQ(parse_protocol(protocol_token(info.protocol)), info.protocol) << info.token;
    tokens.insert(info.token);
    names.insert(info.name);
  }
  EXPECT_EQ(tokens.size(), kProtocolTable.size()) << "duplicate token";
  // Display names become parameterized test names, so they must differ too.
  EXPECT_EQ(names.size(), kProtocolTable.size()) << "duplicate display name";
  // perfbench's async_storm runs always-fallback over TCP; bftnode takes it.
  EXPECT_EQ(parse_protocol("ace"), Protocol::kAlwaysFallback);
  EXPECT_EQ(parse_protocol("ACE"), std::nullopt);
  EXPECT_EQ(parse_protocol(""), std::nullopt);
}

TEST(ProtocolTable, EachVariantBuildsReplicasWithItsFallbackParams) {
  for (const ProtocolInfo& info : kProtocolTable) {
    ExperimentConfig cfg;
    cfg.protocol = info.protocol;
    Experiment exp(cfg);
    for (ReplicaId id = 0; id < exp.n(); ++id) {
      const auto* fb = dynamic_cast<const core::FallbackReplica*>(&exp.replica(id));
      ASSERT_EQ(fb != nullptr, info.fallback.has_value()) << info.token;
      if (fb != nullptr) {
        EXPECT_EQ(fb->fallback_params(), *info.fallback) << info.token;
      }
    }
  }
}

}  // namespace
}  // namespace repro::harness
