// Units, RNG, FlatTable and the JSON writer: determinism, distribution
// sanity, conversion exactness, lookup across growth, numbers that survive
// a dump and re-parse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "common/flat_table.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace paraleon {
namespace {

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1000000);
  EXPECT_EQ(seconds(1), 1000000000);
  EXPECT_DOUBLE_EQ(to_us(microseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
}

TEST(TimeUnits, RateConversions) {
  EXPECT_DOUBLE_EQ(gbps(100), 100e9);
  EXPECT_DOUBLE_EQ(mbps(5), 5e6);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(25)), 25.0);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(150)), 150.0);
}

TEST(TimeUnits, SerializationExactCases) {
  // 1000 B at 100 Gbps = 8000 bits / 100e9 bps = 80 ns exactly.
  EXPECT_EQ(serialization_time(1000, gbps(100)), 80);
  // 1 B at 1 Gbps = 8 ns.
  EXPECT_EQ(serialization_time(1, gbps(1)), 8);
  // 64 B control frame at 10 Gbps = 51.2 ns -> rounds UP to 52.
  EXPECT_EQ(serialization_time(64, gbps(10)), 52);
}

TEST(TimeUnits, SerializationNeverRoundsDown) {
  // Rounding down would let a transmitter exceed line rate.
  for (std::int64_t bytes : {1, 63, 64, 999, 1000, 1500, 4096}) {
    for (Rate r : {gbps(1), gbps(10), gbps(25), gbps(100), gbps(400)}) {
      const Time t = serialization_time(bytes, r);
      EXPECT_GE(static_cast<double>(t) * r / 8e9,
                static_cast<double>(bytes) - 1e-6);
    }
  }
}

TEST(TimeUnits, BytesInInvertsSerialization) {
  const Rate r = gbps(10);
  const Time t = serialization_time(1000, r);
  EXPECT_GE(bytes_in(t, r), 999);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(0.5, 1.0);
    EXPECT_GE(u, 0.5);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / kN, 50.0, 1.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(23);
  parent_copy.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child.next_u64() == a.next_u64());
  EXPECT_LT(same, 5);
}

TEST(FlatTable, KeepsEveryKeyAcrossGrowthAndClear) {
  common::FlatTable<std::int64_t> t;
  // Keys that share low bits and a zero key, past several doublings.
  for (std::uint64_t k = 0; k < 1000; ++k) {
    t[k << 20] += static_cast<std::int64_t>(k);
  }
  for (std::uint64_t k = 0; k < 1000; ++k) t[k << 20] += 1;
  EXPECT_EQ(t.size(), 1000u);
  std::set<std::uint64_t> keys;
  t.for_each([&](std::uint64_t key, std::int64_t v) {
    EXPECT_EQ(v, static_cast<std::int64_t>(key >> 20) + 1);
    keys.insert(key);
  });
  EXPECT_EQ(keys.size(), 1000u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  t[5] = 3;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t[5], 3);
}

TEST(FlatTable, EraseKeepsEveryOtherKeyReachable) {
  // Erasing from the middle of probe runs must not strand the entries
  // behind it: every survivor stays findable, every erased key is gone.
  // Random keys, so that probe runs form (an arithmetic key sequence
  // hashes without a single collision).
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys(600);
  for (std::uint64_t& k : keys) k = rng();
  common::FlatTable<std::size_t> t;
  for (std::size_t i = 0; i < keys.size(); ++i) t[keys[i]] = i;
  for (std::size_t i = 0; i < keys.size(); i += 3) t.erase(keys[i]);
  t.erase(12345);  // absent: no-op
  EXPECT_EQ(t.size(), 400u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t* v = t.find(keys[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(v, nullptr) << i;
    } else {
      ASSERT_NE(v, nullptr) << i;
      EXPECT_EQ(*v, i);
    }
  }
  t[keys[0]] = 1000;
  EXPECT_EQ(*t.find(keys[0]), 1000u);
  EXPECT_EQ(t.size(), 401u);
}

TEST(Json, NonFiniteNumbersDumpAsNullAndReparse) {
  // JSON has no literal for NaN or the infinities.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const common::Json doc = common::Json::make_object(
        {{"v", common::Json::make_number(v)}});
    const common::Json back = common::Json::parse(doc.dump());
    EXPECT_TRUE(back.find("v")->is_null()) << doc.dump();
    std::string line;
    doc.dump_line(line);
    EXPECT_TRUE(common::Json::parse(line).find("v")->is_null()) << line;
  }
}

TEST(Json, FullWidthUnsignedIntegersRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{9223372036854775807ull},
        std::uint64_t{9223372036854775808ull},
        std::numeric_limits<std::uint64_t>::max()}) {
    const common::Json back =
        common::Json::parse(common::Json::make_uint(v).dump());
    EXPECT_TRUE(back.is_integer()) << v;
    EXPECT_EQ(back.as_uint64(), v);
  }
  // Above INT64_MAX the value has no int64 form.
  EXPECT_THROW(common::Json::parse("18446744073709551615").as_int64(),
               common::JsonError);
  EXPECT_EQ(common::Json::parse("-9223372036854775808").as_int64(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Json, DumpLineIsTheOneLineFormOfDump) {
  const common::Json doc = common::Json::make_object({
      {"a", common::Json::make_int(1)},
      {"b", common::Json::parse("[2, {\"c\": \"q\\\"\"}, []]")},
      {"d", common::Json::make_object()},
  });
  std::string line;
  doc.dump_line(line);
  EXPECT_EQ(line,
            "{\"a\": 1, \"b\": [2, {\"c\": \"q\\\"\"}, []], \"d\": {}}");
  EXPECT_EQ(common::Json::parse(line).dump(), doc.dump());
}

}  // namespace
}  // namespace paraleon
