#include "sketch/elastic_sketch.hpp"

#include <algorithm>
#include <bit>

#include "check/check.hpp"

namespace paraleon::sketch {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1u;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

std::size_t words_for(std::size_t entries) { return (entries + 63) / 64; }

}  // namespace

ElasticSketch::ElasticSketch(const ElasticSketchConfig& cfg) : cfg_(cfg) {
  PARALEON_CHECK(cfg.heavy_buckets > 0 && cfg.light_counters > 0,
                 "degenerate sketch geometry: heavy=", cfg.heavy_buckets,
                 " light=", cfg.light_counters);
  heavy_ = std::make_unique_for_overwrite<Bucket[]>(cfg.heavy_buckets);
  light_ = std::make_unique_for_overwrite<std::int64_t[]>(cfg.light_counters);
  heavy_occ_.assign(words_for(cfg.heavy_buckets), 0);
  light_occ_.assign(words_for(cfg.light_counters), 0);
}

std::size_t ElasticSketch::heavy_index(std::uint64_t key) const {
  return mix(key) % cfg_.heavy_buckets;
}

std::size_t ElasticSketch::light_index(std::uint64_t key) const {
  return mix(key ^ 0x9E3779B97F4A7C15ull) % cfg_.light_counters;
}

bool ElasticSketch::on_data_packet(const sim::Packet& pkt) {
  insert(pkt.qp_key != 0 ? pkt.qp_key : pkt.flow_id, pkt.size_bytes);
  return cfg_.use_tos_marking;
}

void ElasticSketch::insert(std::uint64_t flow_id, std::int64_t bytes) {
  ++insertions_;
  const std::size_t i = heavy_index(flow_id);
  Bucket& b = heavy_[i];
  if (!test_bit(heavy_occ_, i)) {
    set_bit(heavy_occ_, i);
    b = Bucket{flow_id, bytes, 0, false};
    return;
  }
  if (b.key == flow_id) {
    b.vote_pos += bytes;
    return;
  }
  b.vote_neg += bytes;
  ++ostracism_votes_;
  if (static_cast<double>(b.vote_neg) >=
      cfg_.lambda * static_cast<double>(b.vote_pos)) {
    // Ostracism: the resident flow has been outvoted — demote it to the
    // light part and let the newcomer take the bucket. The newcomer's
    // earlier bytes (if any) are already in the light part, hence flag.
    light_add(b.key, b.vote_pos);
    ++evictions_;
    b = Bucket{flow_id, bytes, 0, /*flag=*/true};
  } else {
    light_add(flow_id, bytes);
  }
}

void ElasticSketch::light_add(std::uint64_t key, std::int64_t bytes) {
  const std::size_t i = light_index(key);
  if (test_bit(light_occ_, i)) {
    light_[i] += bytes;
  } else {
    set_bit(light_occ_, i);
    light_[i] = bytes;
  }
}

std::int64_t ElasticSketch::light_query(std::uint64_t key) const {
  const std::size_t i = light_index(key);
  return test_bit(light_occ_, i) ? light_[i] : 0;
}

std::int64_t ElasticSketch::query(std::uint64_t flow_id) const {
  const std::size_t i = heavy_index(flow_id);
  const Bucket& b = heavy_[i];
  if (test_bit(heavy_occ_, i) && b.key == flow_id) {
    return b.vote_pos + (b.flag ? light_query(flow_id) : 0);
  }
  return light_query(flow_id);
}

std::vector<HeavyRecord> ElasticSketch::heavy_flows() const {
  std::size_t resident = 0;
  for (const std::uint64_t word : heavy_occ_) {
    resident += static_cast<std::size_t>(std::popcount(word));
  }
  std::vector<HeavyRecord> out;
  out.reserve(resident);
  // Set bits in index order: the same order as a scan of every bucket.
  for (std::size_t w = 0; w < heavy_occ_.size(); ++w) {
    for (std::uint64_t bits = heavy_occ_[w]; bits != 0; bits &= bits - 1) {
      const Bucket& b =
          heavy_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      out.push_back({b.key, b.vote_pos + (b.flag ? light_query(b.key) : 0)});
    }
  }
  return out;
}

void ElasticSketch::reset() {
  std::fill(heavy_occ_.begin(), heavy_occ_.end(), 0);
  std::fill(light_occ_.begin(), light_occ_.end(), 0);
  if (reset_hook_) reset_hook_();
}

std::size_t ElasticSketch::memory_bytes() const {
  return cfg_.heavy_buckets * sizeof(Bucket) +
         cfg_.light_counters * sizeof(std::int64_t);
}

}  // namespace paraleon::sketch
