// Elastic Sketch, NetFlow sampler and exact table.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sketch/elastic_sketch.hpp"
#include "sketch/netflow.hpp"

namespace paraleon::sketch {
namespace {

sim::Packet packet_of(std::uint64_t flow, std::uint32_t bytes) {
  sim::Packet p;
  p.flow_id = flow;
  p.type = sim::PacketType::kData;
  p.size_bytes = bytes;
  return p;
}

TEST(ElasticSketch, SingleFlowExact) {
  ElasticSketch es(ElasticSketchConfig{});
  for (int i = 0; i < 100; ++i) es.insert(42, 1000);
  EXPECT_EQ(es.query(42), 100000);
}

TEST(ElasticSketch, UnseenFlowUsuallyZero) {
  ElasticSketch es(ElasticSketchConfig{});
  es.insert(42, 1000);
  // A different flow that doesn't collide reads 0 from the light part.
  EXPECT_EQ(es.query(987654321), 0);
}

TEST(ElasticSketch, HeavyFlowsListsResidents) {
  ElasticSketch es(ElasticSketchConfig{});
  es.insert(1, 5000);
  es.insert(2, 7000);
  const auto flows = es.heavy_flows();
  std::map<std::uint64_t, std::int64_t> m;
  for (const auto& r : flows) m[r.flow_id] = r.bytes;
  EXPECT_EQ(m[1], 5000);
  EXPECT_EQ(m[2], 7000);
}

TEST(ElasticSketch, ResetClears) {
  ElasticSketch es(ElasticSketchConfig{});
  es.insert(1, 5000);
  es.reset();
  EXPECT_EQ(es.query(1), 0);
  EXPECT_TRUE(es.heavy_flows().empty());
}

TEST(ElasticSketch, OstracismEvictsOutvotedFlow) {
  // Single bucket forces every flow to collide.
  ElasticSketchConfig cfg;
  cfg.heavy_buckets = 1;
  cfg.lambda = 2.0;
  ElasticSketch es(cfg);
  es.insert(1, 100);  // resident
  // Flow 2 votes against until 2 * vote+ reached -> eviction.
  es.insert(2, 100);  // vote- = 100 < 200
  EXPECT_EQ(es.evictions(), 0u);
  es.insert(2, 100);  // vote- = 200 >= 2*100: evict flow 1
  EXPECT_EQ(es.evictions(), 1u);
  // Flow 1's bytes moved to the light part; still queryable.
  EXPECT_EQ(es.query(1), 100);
  // Flow 2 owns the bucket now with the last packet's bytes, flagged, and
  // its earlier (light) bytes folded into the estimate.
  EXPECT_GE(es.query(2), 100);
}

TEST(ElasticSketch, EstimateNeverUnderestimatesWithCollisions) {
  // Small sketch + many flows: collisions push flows to the light part,
  // which only overestimates. Property over seeds.
  ElasticSketchConfig cfg;
  cfg.heavy_buckets = 64;
  cfg.light_counters = 256;
  ElasticSketch es(cfg);
  Rng rng(3);
  std::map<std::uint64_t, std::int64_t> truth;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t f = rng.uniform_index(300);
    truth[f] += 1000;
    es.insert(f, 1000);
  }
  int underestimates = 0;
  for (const auto& [f, bytes] : truth) {
    if (es.query(f) < bytes) ++underestimates;
  }
  // The heavy part can underestimate a flow that was evicted mid-life and
  // re-admitted (its light remnant is folded back via the flag), so allow
  // a small fraction.
  EXPECT_LT(underestimates, 30);
}

TEST(ElasticSketch, AccurateForTopFlowsAtScale) {
  ElasticSketchConfig cfg;  // default: 4096 buckets
  ElasticSketch es(cfg);
  Rng rng(7);
  std::map<std::uint64_t, std::int64_t> truth;
  // 500 flows, heavy-tailed.
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t f = rng.uniform_index(500);
    const std::int64_t bytes = (f < 20) ? 4096 : 256;
    truth[f] += bytes;
    es.insert(f, bytes);
  }
  // Elephants (the 20 big flows) must be measured within 10%.
  for (std::uint64_t f = 0; f < 20; ++f) {
    EXPECT_NEAR(static_cast<double>(es.query(f)),
                static_cast<double>(truth[f]),
                0.1 * static_cast<double>(truth[f]));
  }
}

TEST(ElasticSketch, TosMarkingConfigControlsHookResult) {
  ElasticSketchConfig cfg;
  cfg.use_tos_marking = true;
  ElasticSketch marking(cfg);
  EXPECT_TRUE(marking.on_data_packet(packet_of(1, 1000)));
  cfg.use_tos_marking = false;
  ElasticSketch naive(cfg);
  EXPECT_FALSE(naive.on_data_packet(packet_of(1, 1000)));
  // Both recorded the bytes.
  EXPECT_EQ(marking.query(1), 1000);
  EXPECT_EQ(naive.query(1), 1000);
}

TEST(ElasticSketch, MemoryFootprintMatchesConfig) {
  ElasticSketchConfig cfg;
  cfg.heavy_buckets = 1024;
  cfg.light_counters = 2048;
  ElasticSketch es(cfg);
  EXPECT_GT(es.memory_bytes(), 1024u * 16);
  EXPECT_LT(es.memory_bytes(), 1024u * 40 + 2048u * 8 + 1024);
}

/// The sketch as it was before its storage was governed by validity bits:
/// zero-initialised buckets with an `occupied` flag and zeroed light
/// counters, every entry rewritten on reset(). ElasticSketch must answer
/// every query and heavy_flows() exactly as this does.
class ReferenceSketch {
 public:
  explicit ReferenceSketch(const ElasticSketchConfig& cfg)
      : cfg_(cfg), heavy_(cfg.heavy_buckets), light_(cfg.light_counters, 0) {}

  void insert(std::uint64_t flow_id, std::int64_t bytes) {
    Bucket& b = heavy_[mix(flow_id) % heavy_.size()];
    if (!b.occupied) {
      b = Bucket{flow_id, bytes, 0, false, true};
      return;
    }
    if (b.key == flow_id) {
      b.vote_pos += bytes;
      return;
    }
    b.vote_neg += bytes;
    if (static_cast<double>(b.vote_neg) >=
        cfg_.lambda * static_cast<double>(b.vote_pos)) {
      light_at(b.key) += b.vote_pos;
      ++evictions;
      b = Bucket{flow_id, bytes, 0, true, true};
    } else {
      light_at(flow_id) += bytes;
    }
  }

  std::int64_t query(std::uint64_t flow_id) const {
    const Bucket& b = heavy_[mix(flow_id) % heavy_.size()];
    if (b.occupied && b.key == flow_id) {
      return b.vote_pos + (b.flag ? light_at(flow_id) : 0);
    }
    return light_at(flow_id);
  }

  /// Whether `flow_id` is resident in the heavy part.
  bool resident(std::uint64_t flow_id) const {
    const Bucket& b = heavy_[mix(flow_id) % heavy_.size()];
    return b.occupied && b.key == flow_id;
  }

  std::vector<HeavyRecord> heavy_flows() const {
    std::vector<HeavyRecord> out;
    for (const Bucket& b : heavy_) {
      if (!b.occupied) continue;
      out.push_back({b.key, b.vote_pos + (b.flag ? light_at(b.key) : 0)});
    }
    return out;
  }

  std::size_t flagged() const {
    std::size_t n = 0;
    for (const Bucket& b : heavy_) n += b.occupied && b.flag ? 1 : 0;
    return n;
  }

  void reset() {
    for (Bucket& b : heavy_) b = Bucket{};
    for (auto& c : light_) c = 0;
  }

  std::uint64_t evictions = 0;

 private:
  struct Bucket {
    std::uint64_t key = 0;
    std::int64_t vote_pos = 0;
    std::int64_t vote_neg = 0;
    bool flag = false;
    bool occupied = false;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }
  std::size_t light_index(std::uint64_t key) const {
    return mix(key ^ 0x9E3779B97F4A7C15ull) % light_.size();
  }
  std::int64_t& light_at(std::uint64_t key) { return light_[light_index(key)]; }
  std::int64_t light_at(std::uint64_t key) const {
    return light_[light_index(key)];
  }

  ElasticSketchConfig cfg_;
  std::vector<Bucket> heavy_;
  std::vector<std::int64_t> light_;
};

void expect_same_heavy_flows(const ElasticSketch& es,
                             const ReferenceSketch& ref) {
  const std::vector<HeavyRecord> got = es.heavy_flows();
  const std::vector<HeavyRecord> want = ref.heavy_flows();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].flow_id, want[i].flow_id) << "record " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "record " << i;
  }
}

/// Coverage of one randomized run: every case the equivalence must hold in.
struct Coverage {
  std::uint64_t evictions = 0;
  std::size_t flagged_drains = 0;     // heavy_flows() with a flagged bucket
  std::size_t light_only_hits = 0;    // nonzero query of a non-resident flow
  std::size_t resets = 0;
};

/// Drives both sketches with one seeded random sequence of insert, query,
/// heavy_flows and reset, asserting every answer is equal.
Coverage drive_both(std::uint64_t seed, double lambda, std::size_t heavy,
                    std::size_t light) {
  ElasticSketchConfig cfg;
  cfg.heavy_buckets = heavy;
  cfg.light_counters = light;
  cfg.lambda = lambda;
  ElasticSketch es(cfg);
  ReferenceSketch ref(cfg);
  Rng rng(seed);
  Coverage cov;
  for (int op = 0; op < 20000; ++op) {
    // A few elephants among many mice, so residents are both outvoted and
    // kept.
    const std::uint64_t flow = rng.chance(0.3)
                                   ? 1 + rng.uniform_index(4)
                                   : 100 + rng.uniform_index(8 * heavy);
    const double pick = rng.uniform();
    if (pick < 0.75) {
      const auto bytes = static_cast<std::int64_t>(64 + rng.uniform_index(1500));
      es.insert(flow, bytes);
      ref.insert(flow, bytes);
    } else if (pick < 0.95) {
      const std::int64_t want = ref.query(flow);
      EXPECT_EQ(es.query(flow), want) << "op " << op << " flow " << flow;
      if (want != 0 && !ref.resident(flow)) ++cov.light_only_hits;
    } else if (pick < 0.995) {
      expect_same_heavy_flows(es, ref);
      if (ref.flagged() > 0) ++cov.flagged_drains;
    } else {
      // The control plane's read-and-reset.
      expect_same_heavy_flows(es, ref);
      es.reset();
      ref.reset();
      ++cov.resets;
    }
  }
  EXPECT_EQ(es.evictions(), ref.evictions);
  cov.evictions = ref.evictions;
  return cov;
}

TEST(ElasticSketch, MatchesZeroInitialisedReferenceOnRandomSequences) {
  // 16/64 fits each bitmap in one word; 200/700 spans several and ends in
  // a partial word.
  const std::pair<std::size_t, std::size_t> geometries[] = {{16, 64},
                                                            {200, 700}};
  for (const auto& [heavy, light] : geometries) {
    for (const double lambda : {1.0, 2.0, 8.0}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << heavy << "/" << light << " lambda "
                                        << lambda << " seed " << seed);
        const Coverage cov = drive_both(seed, lambda, heavy, light);
        // Every path ran: ostracism evictions, drains of flagged buckets,
        // answers from the light part alone, and reuse after reset().
        EXPECT_GT(cov.evictions, 0u);
        EXPECT_GT(cov.flagged_drains, 0u);
        EXPECT_GT(cov.light_only_hits, 0u);
        EXPECT_GT(cov.resets, 10u);
      }
    }
  }
}

TEST(ElasticSketch, StaleEntriesNeverLeakIntoResults) {
  ElasticSketchConfig cfg;
  cfg.heavy_buckets = 16;
  cfg.light_counters = 64;
  cfg.lambda = 1.0;
  // Fill every bucket and counter, drain, then reuse: a fresh sketch built
  // on the freed storage and the reset one must both read as empty.
  auto filled = std::make_unique<ElasticSketch>(cfg);
  for (std::uint64_t f = 0; f < 2000; ++f) filled->insert(f % 500, 1000);
  filled->reset();
  for (std::uint64_t f = 0; f < 500; ++f) EXPECT_EQ(filled->query(f), 0);
  EXPECT_TRUE(filled->heavy_flows().empty());
  filled->insert(7, 3);
  EXPECT_EQ(filled->query(7), 3);
  ASSERT_EQ(filled->heavy_flows().size(), 1u);
  EXPECT_EQ(filled->heavy_flows()[0].bytes, 3);
  filled.reset();

  ElasticSketch fresh(cfg);
  for (std::uint64_t f = 0; f < 500; ++f) EXPECT_EQ(fresh.query(f), 0);
  EXPECT_TRUE(fresh.heavy_flows().empty());
  // A light counter's first add stores its bytes rather than adding to
  // whatever the storage held: evicted and colliding flows read what the
  // zero-initialised reference reads.
  ReferenceSketch ref(cfg);
  fresh.insert(1, 100);
  ref.insert(1, 100);
  for (std::uint64_t f = 2; f < 40; ++f) {
    fresh.insert(f, 250);
    ref.insert(f, 250);
  }
  for (std::uint64_t f = 1; f < 40; ++f) EXPECT_EQ(fresh.query(f), ref.query(f));
  expect_same_heavy_flows(fresh, ref);
}

class SketchLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(SketchLoadTest, HeavyHitterRecallUnderLoad) {
  const int n_flows = GetParam();
  ElasticSketch es(ElasticSketchConfig{});
  Rng rng(11);
  // n_flows mice plus 10 elephants.
  for (int i = 0; i < n_flows * 20; ++i) {
    es.insert(1000 + rng.uniform_index(n_flows), 500);
  }
  for (int e = 0; e < 10; ++e) {
    for (int i = 0; i < 2000; ++i)
      es.insert(static_cast<std::uint64_t>(e), 1500);
  }
  // All 10 elephants must be present in the heavy part with large counts.
  const auto flows = es.heavy_flows();
  int elephants_found = 0;
  for (const auto& r : flows) {
    if (r.flow_id < 10 && r.bytes > 1000000) ++elephants_found;
  }
  EXPECT_EQ(elephants_found, 10);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, SketchLoadTest,
                         ::testing::Values(100, 500, 2000));

TEST(NetFlow, UnbiasedEstimateForLargeFlow) {
  NetFlowConfig cfg;
  cfg.sampling_rate = 100;
  cfg.seed = 5;
  NetFlow nf(cfg);
  for (int i = 0; i < 100000; ++i) nf.on_data_packet(packet_of(1, 1000));
  const auto flows = nf.flows();
  ASSERT_EQ(flows.size(), 1u);
  // 100 MB true size; sampled estimate within 10%.
  EXPECT_NEAR(static_cast<double>(flows[0].bytes), 1e8, 1e7);
}

TEST(NetFlow, MissesMostMiceFlows) {
  NetFlowConfig cfg;
  cfg.sampling_rate = 100;
  NetFlow nf(cfg);
  // 1000 mice of 10 packets each: expect ~10% to be sampled at all.
  for (std::uint64_t f = 0; f < 1000; ++f) {
    for (int i = 0; i < 10; ++i) nf.on_data_packet(packet_of(f, 1000));
  }
  EXPECT_LT(nf.tracked_flows(), 300u);
  EXPECT_GT(nf.tracked_flows(), 10u);
}

TEST(NetFlow, NeverClaimsTosBit) {
  NetFlow nf(NetFlowConfig{1, 1});  // sample every packet
  EXPECT_FALSE(nf.on_data_packet(packet_of(1, 1000)));
}

TEST(NetFlow, ResetClears) {
  NetFlow nf(NetFlowConfig{1, 1});
  nf.on_data_packet(packet_of(1, 1000));
  ASSERT_EQ(nf.tracked_flows(), 1u);
  nf.reset();
  EXPECT_EQ(nf.tracked_flows(), 0u);
}

TEST(ExactFlowTable, ExactAndResettable) {
  ExactFlowTable t;
  t.on_data_packet(packet_of(7, 500));
  t.insert(7, 500);
  EXPECT_EQ(t.query(7), 1000);
  EXPECT_EQ(t.query(8), 0);
  t.reset();
  EXPECT_EQ(t.query(7), 0);
}

}  // namespace
}  // namespace paraleon::sketch
