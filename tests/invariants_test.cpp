// System-wide invariants checked across seeds and configurations
// (property-style TEST_P suites): byte conservation, losslessness, MMU
// accounting, and cross-scheme determinism.
#include <gtest/gtest.h>

#include <numeric>

#include "runner/experiment.hpp"
#include "stats/percentile.hpp"

namespace paraleon {
namespace {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = Scheme::kDefaultStatic;
  cfg.duration = milliseconds(60);
  cfg.seed = seed;
  return cfg;
}

class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, EveryOfferedByteIsTransmittedExactlyOnce) {
  Experiment exp(base_config(GetParam()));
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::solar_rpc_distribution();  // mice: all complete
  w.load = 0.2;
  w.stop = milliseconds(40);
  w.seed = GetParam() * 3 + 1;
  exp.add_poisson(w);
  // Generous drain horizon: a flow cut to the DCQCN minimum rate needs
  // ~100 ms for 128 KB.
  exp.run_until(milliseconds(400));
  ASSERT_EQ(exp.fct().finished(), exp.fct().started());
  ASSERT_EQ(exp.topology().total_drops(), 0u);
  // Lossless fabric, no retransmissions: source NICs put each offered
  // byte on the wire exactly once.
  std::int64_t offered = 0;
  for (const auto& rec : exp.fct().records()) offered += rec.size_bytes;
  std::int64_t transmitted = 0;
  for (int h = 0; h < exp.topology().host_count(); ++h) {
    transmitted += exp.topology().host(h).uplink().tx_data_bytes();
  }
  EXPECT_EQ(transmitted, offered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(1, 2, 3, 4, 5));

struct LosslessCase {
  std::int64_t buffer_bytes;
  int incast_degree;
};

class LosslessTest : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessTest, PfcPreventsDropsEverywhere) {
  const auto param = GetParam();
  sim::Simulator sim;
  sim::ClosConfig clos;
  clos.n_tor = 2;
  clos.n_leaf = 2;
  clos.hosts_per_tor = 4;
  clos.host_link = gbps(10);
  clos.fabric_link = gbps(10);
  clos.prop_delay = microseconds(2);
  clos.switch_cfg.buffer_bytes = param.buffer_bytes;
  // ECN effectively off: PFC alone must keep the fabric lossless.
  clos.dcqcn = dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                           gbps(100), gbps(10));
  clos.dcqcn.kmin_bytes = 8 << 20;
  clos.dcqcn.kmax_bytes = 10 << 20;
  sim::ClosTopology topo(&sim, clos);
  int completed = 0;
  topo.host(0).set_on_flow_complete([&](std::uint64_t, Time) { ++completed; });
  for (int i = 1; i <= param.incast_degree; ++i) {
    topo.host(i % 8).start_flow(static_cast<std::uint64_t>(i), 0, 1 << 20);
  }
  sim.run_until(milliseconds(200));
  EXPECT_EQ(topo.total_drops(), 0u);
  EXPECT_EQ(completed, param.incast_degree);
}

INSTANTIATE_TEST_SUITE_P(
    BufferAndDegree, LosslessTest,
    ::testing::Values(LosslessCase{256 * 1024, 3}, LosslessCase{256 * 1024, 7},
                      LosslessCase{1 << 20, 7}, LosslessCase{128 * 1024, 5}),
    [](const ::testing::TestParamInfo<LosslessCase>& param_info) {
      return "buf" + std::to_string(param_info.param.buffer_bytes / 1024) +
             "KB_n" + std::to_string(param_info.param.incast_degree);
    });

TEST(MmuInvariant, AllBuffersEmptyAfterQuiescence) {
  Experiment exp(base_config(11));
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::fb_hadoop_distribution();
  w.load = 0.25;
  w.stop = milliseconds(30);
  w.seed = 17;
  exp.add_poisson(w);
  exp.run_until(milliseconds(500));  // generous drain time
  auto& topo = exp.topology();
  for (int t = 0; t < topo.tor_count(); ++t) {
    EXPECT_EQ(topo.tor(t).buffer_used(), 0) << "tor " << t;
    for (int p = 0; p < topo.tor(t).port_count(); ++p) {
      EXPECT_EQ(topo.tor(t).port(p).data_queue_bytes(), 0);
    }
  }
  for (int l = 0; l < topo.leaf_count(); ++l) {
    EXPECT_EQ(topo.leaf(l).buffer_used(), 0) << "leaf " << l;
  }
}

class SchemeDeterminismTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeDeterminismTest, BitIdenticalAcrossRuns) {
  const auto run = [&] {
    ExperimentConfig cfg = base_config(23);
    cfg.scheme = GetParam();
    cfg.controller.sa.total_iter_num = 3;
    cfg.controller.sa.cooling_rate = 0.5;
    cfg.controller.sa.final_temp = 30;
    Experiment exp(cfg);
    workload::PoissonConfig w;
    w.hosts = exp.all_hosts();
    w.sizes = &workload::fb_hadoop_distribution();
    w.load = 0.3;
    w.stop = milliseconds(50);
    w.seed = 31;
    exp.add_poisson(w);
    exp.run();
    double fct_sum = 0.0;
    for (double v : exp.fct().fct_seconds(0, 1ll << 40)) fct_sum += v;
    return std::make_tuple(exp.fct().finished(), fct_sum,
                           exp.simulator().events_executed());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeDeterminismTest,
    ::testing::Values(Scheme::kDefaultStatic, Scheme::kParaleon,
                      Scheme::kAcc, Scheme::kDcqcnPlus,
                      Scheme::kParaleonPerPod,
                      Scheme::kParaleonRnicCounters),
    [](const ::testing::TestParamInfo<Scheme>& param_info) {
      std::string n = runner::scheme_name(param_info.param);
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(SeedSensitivity, DifferentSeedsDifferentTraces) {
  const auto run = [&](std::uint64_t seed) {
    Experiment exp(base_config(seed));
    workload::PoissonConfig w;
    w.hosts = exp.all_hosts();
    w.sizes = &workload::fb_hadoop_distribution();
    w.load = 0.3;
    w.stop = milliseconds(40);
    w.seed = seed;
    exp.add_poisson(w);
    exp.run();
    return exp.simulator().events_executed();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(PausedTime, MonotoneNonNegative) {
  sim::Simulator sim;
  sim::ClosConfig clos;
  clos.n_tor = 2;
  clos.n_leaf = 1;
  clos.hosts_per_tor = 2;
  clos.host_link = gbps(10);
  clos.fabric_link = gbps(10);
  clos.prop_delay = microseconds(1);
  clos.switch_cfg.buffer_bytes = 128 * 1024;
  clos.dcqcn = dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                           gbps(100), gbps(10));
  clos.dcqcn.kmin_bytes = 4 << 20;  // PFC-only regime
  clos.dcqcn.kmax_bytes = 8 << 20;
  sim::ClosTopology topo(&sim, clos);
  for (int src = 1; src < 4; ++src) {
    topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0, 2 << 20);
  }
  Time last = 0;
  for (int ms = 1; ms <= 30; ++ms) {
    sim.run_until(milliseconds(ms));
    const Time paused = topo.total_paused_time();
    EXPECT_GE(paused, last);
    last = paused;
  }
  EXPECT_GT(last, 0);
}

}  // namespace
}  // namespace paraleon
