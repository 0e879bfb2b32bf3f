// Experiment harness integration: every scheme end-to-end on a small
// fabric, accuracy tracking, determinism.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "runner/experiment.hpp"
#include "stats/percentile.hpp"

namespace paraleon::runner {
namespace {

ExperimentConfig small_config(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(1);
  cfg.scheme = scheme;
  cfg.controller.mi = milliseconds(1);
  cfg.controller.sa.total_iter_num = 3;
  cfg.controller.sa.cooling_rate = 0.5;
  cfg.controller.sa.final_temp = 30;
  cfg.duration = milliseconds(30);
  cfg.seed = 11;
  return cfg;
}

workload::PoissonConfig small_poisson(const Experiment& e) {
  workload::PoissonConfig w;
  w.hosts = e.all_hosts();
  w.sizes = &workload::fb_hadoop_distribution();
  w.load = 0.3;
  w.stop = milliseconds(25);
  w.seed = 21;
  return w;
}

class SchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeTest, RunsAndCompletesFlows) {
  Experiment exp(small_config(GetParam()));
  exp.add_poisson(small_poisson(exp));
  exp.run();
  EXPECT_GT(exp.fct().started(), 20u);
  // The vast majority of flows complete within the horizon.
  EXPECT_GT(static_cast<double>(exp.fct().finished()),
            0.7 * static_cast<double>(exp.fct().started()));
  EXPECT_EQ(exp.topology().total_drops(), 0u);
  // Runtime series recorded for every scheme.
  EXPECT_GE(exp.throughput_series().points().size(), 25u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Values(Scheme::kDefaultStatic, Scheme::kExpertStatic,
                      Scheme::kParaleon, Scheme::kParaleonNaiveSa,
                      Scheme::kParaleonNoFsd, Scheme::kParaleonNetflow,
                      Scheme::kParaleonNaiveSketch, Scheme::kAcc,
                      Scheme::kDcqcnPlus),
    [](const ::testing::TestParamInfo<Scheme>& param_info) {
      std::string n = scheme_name(param_info.param);
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(Experiment, SchemeNamesUnique) {
  std::set<std::string> names;
  for (Scheme s :
       {Scheme::kDefaultStatic, Scheme::kExpertStatic, Scheme::kCustomStatic,
        Scheme::kParaleon, Scheme::kParaleonNaiveSa, Scheme::kParaleonNoFsd,
        Scheme::kParaleonNetflow, Scheme::kParaleonNaiveSketch, Scheme::kAcc,
        Scheme::kDcqcnPlus}) {
    EXPECT_TRUE(names.insert(scheme_name(s)).second);
  }
}

TEST(Experiment, ControllerPresentOnlyForParaleonFamily) {
  Experiment p(small_config(Scheme::kParaleon));
  EXPECT_NE(p.controller(), nullptr);
  Experiment d(small_config(Scheme::kDefaultStatic));
  EXPECT_EQ(d.controller(), nullptr);
  Experiment a(small_config(Scheme::kAcc));
  EXPECT_EQ(a.controller(), nullptr);
}

TEST(Experiment, ExpertPresetScaledToLineRate) {
  Experiment e(small_config(Scheme::kExpertStatic));
  const auto& p = e.topology().host(0).dcqcn_params();
  // Table I at 400G: kmin 1600 KB -> at 10G: 40 KB.
  EXPECT_EQ(p.kmin_bytes, 40 * 1024);
  EXPECT_EQ(p.min_time_between_cnps, microseconds(96));  // time unscaled
}

TEST(Experiment, CustomStaticUsesProvidedParams) {
  ExperimentConfig cfg = small_config(Scheme::kCustomStatic);
  cfg.custom_params = dcqcn::default_params();
  cfg.custom_params.kmin_bytes = 12345;
  cfg.custom_params.kmax_bytes = 23456;
  Experiment e(cfg);
  EXPECT_EQ(e.topology().host(0).dcqcn_params().kmin_bytes, 12345);
  EXPECT_EQ(e.topology().tor(0).ecn().kmin_bytes, 12345);
}

TEST(Experiment, ZeroMonitorIntervalFailsAtConstruction) {
  // Every per-interval tick reschedules itself one interval ahead, so a
  // zero interval would spin forever at t = 0 instead of failing.
  for (const Scheme scheme : {Scheme::kParaleon, Scheme::kDefaultStatic}) {
    ExperimentConfig cfg = small_config(scheme);
    cfg.controller.mi = 0;
    EXPECT_THROW(Experiment{cfg}, check::CheckFailure);
  }
}

class PerFlowStateTest : public ::testing::TestWithParam<bool> {};

TEST_P(PerFlowStateTest, DrainedRunHoldsNoPerFlowState) {
  // Receive state and the ledger's index follow each flow's lifetime;
  // only the append-only ledger outlives it. The parameter turns on the
  // FSD probe, which holds finished flows until its next tick.
  ExperimentConfig cfg = small_config(Scheme::kDefaultStatic);
  cfg.track_fsd_accuracy = GetParam();
  Experiment exp(cfg);
  workload::PoissonConfig w = small_poisson(exp);
  w.sizes = &workload::solar_rpc_distribution();  // mice: all complete
  exp.add_poisson(w);
  const auto rx_entries = [&exp] {
    std::size_t n = 0;
    for (int h = 0; h < exp.topology().host_count(); ++h) {
      n += exp.topology().host(h).rx_flow_count();
    }
    return n;
  };
  exp.run_until(milliseconds(5));
  EXPECT_GT(rx_entries(), 0u);
  EXPECT_GE(exp.fct().open_flows(),
            exp.fct().started() - exp.fct().finished());
  exp.run_until(milliseconds(400));
  ASSERT_GT(exp.fct().started(), 20u);
  ASSERT_EQ(exp.fct().finished(), exp.fct().started());
  EXPECT_EQ(exp.fct().records().size(), exp.fct().started());
  EXPECT_EQ(exp.fct().open_flows(), 0u);
  for (int h = 0; h < exp.topology().host_count(); ++h) {
    EXPECT_EQ(exp.topology().host(h).rx_flow_count(), 0u) << "host " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(FsdProbe, PerFlowStateTest, ::testing::Bool());

TEST(Experiment, FsdAccuracyTracked) {
  ExperimentConfig cfg = small_config(Scheme::kParaleon);
  cfg.track_fsd_accuracy = true;
  Experiment exp(cfg);
  exp.add_poisson(small_poisson(exp));
  exp.run();
  EXPECT_FALSE(exp.fsd_accuracy_series().empty());
  const double acc = exp.mean_fsd_accuracy();
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
}

TEST(Experiment, ParaleonAccuracyBeatsNetflow) {
  const auto accuracy_of = [](Scheme s) {
    ExperimentConfig cfg = small_config(s);
    cfg.track_fsd_accuracy = true;
    cfg.duration = milliseconds(40);
    Experiment exp(cfg);
    workload::PoissonConfig w;
    w.hosts = exp.all_hosts();
    w.sizes = &workload::fb_hadoop_distribution();
    w.load = 0.3;
    w.stop = milliseconds(35);
    w.seed = 21;
    exp.add_poisson(w);
    exp.run();
    return exp.mean_fsd_accuracy();
  };
  EXPECT_GT(accuracy_of(Scheme::kParaleon),
            accuracy_of(Scheme::kParaleonNetflow));
}

TEST(Experiment, LearnedParamsAvailableAfterEpisode) {
  ExperimentConfig cfg = small_config(Scheme::kParaleon);
  Experiment exp(cfg);
  exp.add_poisson(small_poisson(exp));
  exp.controller()->force_trigger();
  exp.run();
  ASSERT_GE(exp.controller()->episodes(), 1u);
  dcqcn::DcqcnParams learned = exp.learned_params();
  // Legal and usable as a pretrained static setting.
  EXPECT_EQ(dcqcn::clamp_to_legal(learned, cfg.clos.host_link,
                                  cfg.clos.switch_cfg.buffer_bytes),
            0);
}

TEST(Experiment, AlltoallWorkloadRoundsProgress) {
  ExperimentConfig cfg = small_config(Scheme::kDefaultStatic);
  cfg.duration = milliseconds(100);
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  a2a.workers = {0, 1, 2, 3};
  a2a.flow_size = 256 * 1024;
  a2a.off_period = milliseconds(1);
  auto& w = exp.add_alltoall(a2a);
  exp.run();
  EXPECT_GE(w.rounds_completed(), 2);
  EXPECT_GT(w.round_algbw_gbs(0), 0.0);
}

TEST(Experiment, DeterministicEndToEnd) {
  const auto run = [] {
    ExperimentConfig cfg = small_config(Scheme::kParaleon);
    Experiment exp(cfg);
    exp.add_poisson(small_poisson(exp));
    exp.run();
    return std::make_tuple(exp.fct().finished(),
                           stats::mean(exp.fct().slowdowns(0, 1ll << 40)),
                           dcqcn::to_string(exp.learned_params()));
  };
  EXPECT_EQ(run(), run());
}

TEST(Experiment, LoopProfilerSurfacesInRunMeta) {
  ExperimentConfig cfg = small_config(Scheme::kParaleon);
  cfg.obs.profile_loop = true;
  Experiment exp(cfg);
  exp.add_poisson(small_poisson(exp));
  exp.run();
  const obs::LoopProfiler& prof = exp.simulator().obs().profiler();
  EXPECT_EQ(prof.events(), exp.simulator().events_executed());
  EXPECT_GT(prof.wall_seconds(), 0.0);
  EXPECT_GT(prof.events_per_sec(), 0.0);
  // Schedule-site tags reach the per-tag stats perfbench's traced path
  // attributes to layers.
  const auto tags = prof.by_tag();
  ASSERT_TRUE(tags.count("net.serialize"));
  ASSERT_TRUE(tags.count("core.mi_tick"));
  EXPECT_GT(tags.at("net.serialize").count, 0u);
  EXPECT_GT(tags.at("core.mi_tick").count, 0u);
}

TEST(Experiment, SlowdownsAreAtLeastOneIsh) {
  Experiment exp(small_config(Scheme::kDefaultStatic));
  exp.add_poisson(small_poisson(exp));
  exp.run();
  for (double s : exp.fct().slowdowns(0, 1ll << 40)) {
    EXPECT_GT(s, 0.9);  // small tolerance for ideal-model granularity
  }
}

}  // namespace
}  // namespace paraleon::runner
