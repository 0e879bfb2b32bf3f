// Percentiles, FCT tracking and time series.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "stats/fct_tracker.hpp"
#include "stats/percentile.hpp"
#include "stats/timeseries.hpp"

namespace paraleon::stats {
namespace {

TEST(Percentile, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Percentile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.25), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Percentile, P999OfUniform) {
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  EXPECT_NEAR(quantile(v, 0.999), 9989.0, 1.5);
}

TEST(Percentile, MeanSimple) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
}

TEST(Percentile, EcdfAt) {
  const std::vector<double> v{1, 2, 3, 4};
  const auto c = ecdf_at(v, {0.5, 2.0, 10.0});
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 1.0);
}

TEST(Percentile, CdfCurveMonotone) {
  std::vector<double> v;
  for (int i = 100; i > 0; --i) v.push_back(i * 1.5);
  const auto curve = cdf_curve(v, 10);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

class FctFixture : public ::testing::Test {
 protected:
  FctFixture()
      : tracker_([](std::int64_t size, std::uint32_t, std::uint32_t) {
          // ideal: 1 ns per byte + 1000 ns base.
          return static_cast<Time>(size) + 1000;
        }) {}
  FctTracker tracker_;
};

TEST_F(FctFixture, TracksLifecycle) {
  tracker_.on_flow_start(1, 0, 1, 5000, 100);
  EXPECT_EQ(tracker_.started(), 1u);
  EXPECT_EQ(tracker_.finished(), 0u);
  tracker_.on_flow_finish(1, 12100);
  EXPECT_EQ(tracker_.finished(), 1u);
}

TEST_F(FctFixture, SlowdownComputed) {
  tracker_.on_flow_start(1, 0, 1, 5000, 0);
  tracker_.on_flow_finish(1, 12000);  // ideal = 6000 -> slowdown 2.0
  const auto s = tracker_.slowdowns(0, 1 << 30);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
}

TEST_F(FctFixture, SizeBandFilter) {
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  tracker_.on_flow_start(2, 0, 1, 10000, 0);
  tracker_.on_flow_finish(1, 5000);
  tracker_.on_flow_finish(2, 50000);
  EXPECT_EQ(tracker_.slowdowns(0, 1000).size(), 1u);
  EXPECT_EQ(tracker_.slowdowns(1000, 1 << 30).size(), 1u);
  EXPECT_EQ(tracker_.slowdowns(0, 1 << 30).size(), 2u);
}

TEST_F(FctFixture, DoubleFinishIgnored) {
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  tracker_.on_flow_finish(1, 1000);
  tracker_.on_flow_finish(1, 99999);
  EXPECT_EQ(tracker_.finished(), 1u);
  const auto recs = tracker_.completed();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].finish, 1000);
}

TEST_F(FctFixture, UnknownFinishIgnored) {
  tracker_.on_flow_finish(42, 1000);
  EXPECT_EQ(tracker_.finished(), 0u);
}

TEST_F(FctFixture, UnfinishedListed) {
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  tracker_.on_flow_start(2, 0, 1, 100, 0);
  tracker_.on_flow_finish(1, 500);
  const auto u = tracker_.unfinished();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0].flow_id, 2u);
}

TEST_F(FctFixture, LedgerKeepsStartOrderAndIndexesOnlyOpenFlows) {
  tracker_.on_flow_start(9, 0, 1, 100, 0, /*qp_key=*/77);
  tracker_.on_flow_start(3, 1, 0, 200, 10);
  ASSERT_EQ(tracker_.records().size(), 2u);
  EXPECT_EQ(tracker_.records()[0].flow_id, 9u);
  EXPECT_EQ(tracker_.records()[0].qp_key, 77u);
  EXPECT_EQ(tracker_.records()[1].qp_key, 3u);  // a QP of its own
  EXPECT_EQ(tracker_.open_flows(), 2u);
  ASSERT_NE(tracker_.find(3), nullptr);
  EXPECT_EQ(tracker_.find(3)->size_bytes, 200);
  tracker_.on_flow_finish(3, 700);
  EXPECT_EQ(tracker_.open_flows(), 1u);
  EXPECT_EQ(tracker_.find(3), nullptr);
  // Reports stay in flow-id order whatever the start order.
  tracker_.on_flow_finish(9, 900);
  const auto done = tracker_.completed();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].flow_id, 3u);
  EXPECT_EQ(tracker_.open_flows(), 0u);
  EXPECT_EQ(tracker_.records().size(), tracker_.started());
}

TEST_F(FctFixture, HeldFinishedFlowsStayFindableUntilReleased) {
  tracker_.hold_finished();
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  tracker_.on_flow_start(2, 0, 1, 100, 0);
  tracker_.on_flow_finish(1, 500);
  tracker_.on_flow_finish(1, 600);  // double finish still ignored
  ASSERT_NE(tracker_.find(1), nullptr);
  EXPECT_EQ(tracker_.find(1)->finish, 500);
  EXPECT_EQ(tracker_.finished(), 1u);
  tracker_.release_finished();
  EXPECT_EQ(tracker_.find(1), nullptr);
  EXPECT_NE(tracker_.find(2), nullptr);
  EXPECT_EQ(tracker_.open_flows(), 1u);
}

TEST_F(FctFixture, StartingAnOpenFlowTwiceFails) {
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  EXPECT_THROW(tracker_.on_flow_start(1, 0, 1, 100, 5), check::CheckFailure);
}

TEST_F(FctFixture, FctSecondsConverts) {
  tracker_.on_flow_start(1, 0, 1, 100, 0);
  tracker_.on_flow_finish(1, seconds(0.002));
  const auto f = tracker_.fct_seconds(0, 1000);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NEAR(f[0], 0.002, 1e-12);
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  ts.add(0, 1.0);
  ts.add(10, 2.0);
  ts.add(20, 3.0);
  ts.add(30, 4.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(10, 30), 2.5);
  EXPECT_DOUBLE_EQ(ts.mean_in(100, 200), 0.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(0, 40), 2.5);
}

}  // namespace
}  // namespace paraleon::stats
