// DCQCN Reaction Point state machine against the published behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "dcqcn/params.hpp"
#include "dcqcn/rp.hpp"

namespace paraleon::dcqcn {
namespace {

constexpr Rate kLine = gbps(100);

DcqcnParams test_params() {
  DcqcnParams p = default_params();
  p.rpg_time_reset = microseconds(300);
  p.alpha_update_period = microseconds(55);
  p.rate_reduce_monitor_period = microseconds(4);
  p.g = 1.0 / 256.0;
  p.min_rate = mbps(100);
  return p;
}

TEST(RpState, StartsAtLineRate) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  EXPECT_DOUBLE_EQ(rp.current_rate(), kLine);
  EXPECT_DOUBLE_EQ(rp.target_rate(), kLine);
  EXPECT_DOUBLE_EQ(rp.alpha(), 1.0);
}

TEST(RpState, FirstCnpCutsByHalfAlpha) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  EXPECT_TRUE(rp.on_cnp(1000));
  // alpha starts at 1 => cut factor (1 - 1/2) = 0.5.
  EXPECT_DOUBLE_EQ(rp.current_rate(), kLine * 0.5);
  EXPECT_DOUBLE_EQ(rp.target_rate(), kLine);  // Rt remembers pre-cut rate
}

TEST(RpState, RateReduceMonitorPeriodLimitsCuts) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  EXPECT_TRUE(rp.on_cnp(1000));
  const Rate after_first = rp.current_rate();
  // Second CNP within the 4 us monitor period: no further cut.
  EXPECT_FALSE(rp.on_cnp(2000));
  EXPECT_DOUBLE_EQ(rp.current_rate(), after_first);
  // After the period elapses, cuts resume.
  EXPECT_TRUE(rp.on_cnp(1000 + microseconds(5)));
  EXPECT_LT(rp.current_rate(), after_first);
}

TEST(RpState, FastRecoveryHalvesTowardTarget) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  const Rate rc0 = rp.current_rate();
  const Rate rt = rp.target_rate();
  // First timer expiry: fast recovery, Rc = (Rt + Rc)/2, Rt unchanged.
  rp.advance_to(p.rpg_time_reset);
  EXPECT_DOUBLE_EQ(rp.current_rate(), (rt + rc0) / 2.0);
  EXPECT_DOUBLE_EQ(rp.target_rate(), rt);
}

TEST(RpState, FiveFastRecoveriesApproachTarget) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  const Rate rt = rp.target_rate();
  rp.advance_to(5 * p.rpg_time_reset);
  // After 5 halvings the gap shrinks 32x.
  EXPECT_GT(rp.current_rate(), rt * 0.98);
  EXPECT_LE(rp.current_rate(), rt);
  EXPECT_EQ(rp.timer_stage(), 5);
}

TEST(RpState, AdditiveIncreaseAfterThreshold) {
  DcqcnParams p = test_params();
  p.rpg_threshold = 2;
  RpState rp(&p, kLine, 0);
  // Two cuts so the target rate drops well below line rate (the first cut
  // leaves Rt at the line rate, where additive increase would clamp).
  rp.on_cnp(0);
  rp.on_cnp(microseconds(5));
  ASSERT_LT(rp.target_rate(), kLine * 0.75);
  const Time base = microseconds(5);
  // Expire the timer 3 times: stages 1,2 are fast recovery, stage 3 is
  // additive (timer stage exceeds threshold, byte stage does not).
  rp.advance_to(base + 2 * p.rpg_time_reset);
  const Rate rt_before = rp.target_rate();
  rp.advance_to(base + 3 * p.rpg_time_reset);
  EXPECT_DOUBLE_EQ(rp.target_rate(), rt_before + p.ai_rate);
}

TEST(RpState, HyperIncreaseWhenBothStagesPass) {
  DcqcnParams p = test_params();
  p.rpg_threshold = 1;
  p.rpg_byte_reset = 1000;
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  // One timer event and one byte event push both stages to the threshold;
  // the next event is hyper increase.
  rp.advance_to(p.rpg_time_reset);       // t_stage = 1
  rp.on_bytes_sent(1000, p.rpg_time_reset + 1);  // b_stage = 1
  const Rate rt_before = rp.target_rate();
  rp.on_bytes_sent(1000, p.rpg_time_reset + 2);  // b_stage = 2: hyper
  // i = min(2, 1)... timer stage is 1, byte stage 2 -> i = 1 - 1 + 1 = 1.
  EXPECT_DOUBLE_EQ(rp.target_rate(),
                   std::min(kLine, rt_before + p.hai_rate));
}

TEST(RpState, RateNeverExceedsLineRate) {
  DcqcnParams p = test_params();
  p.rpg_threshold = 1;
  p.hai_rate = gbps(50);
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  rp.advance_to(100 * p.rpg_time_reset);
  EXPECT_LE(rp.current_rate(), kLine);
  EXPECT_LE(rp.target_rate(), kLine);
}

TEST(RpState, RateNeverBelowMinRate) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  Time t = 0;
  for (int i = 0; i < 200; ++i) {
    t += p.rate_reduce_monitor_period + 1;
    rp.on_cnp(t);
  }
  EXPECT_GE(rp.current_rate(), p.min_rate);
}

TEST(RpState, AlphaDecaysWithoutCnp) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);  // raises the cnp-seen flag
  rp.advance_to(p.alpha_update_period);  // alpha = (1-g)*1 + g = 1
  const double a1 = rp.alpha();
  EXPECT_NEAR(a1, 1.0, 1e-12);
  rp.advance_to(2 * p.alpha_update_period);  // no CNP: decay
  EXPECT_NEAR(rp.alpha(), (1.0 - p.g) * a1, 1e-12);
  rp.advance_to(10 * p.alpha_update_period);
  EXPECT_LT(rp.alpha(), a1);
}

TEST(RpState, AlphaConvergesTowardZeroWhenUncongested) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.advance_to(seconds(0.01));  // ~180 alpha periods without CNPs
  EXPECT_LT(rp.alpha(), 0.51);   // (1-1/256)^181 ~ 0.49
}

TEST(RpState, LaterCutsAreGentlerAsAlphaDecays) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  const double cut1 = rp.current_rate() / kLine;  // 0.5 with alpha=1
  // Let alpha decay for a long quiet period, then cut again.
  rp.advance_to(milliseconds(5));
  const Rate before = rp.current_rate();
  rp.on_cnp(milliseconds(5));
  const double cut2 = rp.current_rate() / before;
  EXPECT_GT(cut2, cut1);  // gentler relative cut
}

TEST(RpState, ByteCounterFiresIncreaseEvents) {
  DcqcnParams p = test_params();
  p.rpg_byte_reset = 10000;
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  EXPECT_EQ(rp.byte_stage(), 0);
  rp.on_bytes_sent(25000, 1);  // two byte events (2 x 10000), remainder 5000
  EXPECT_EQ(rp.byte_stage(), 2);
  rp.on_bytes_sent(5000, 2);  // completes the third
  EXPECT_EQ(rp.byte_stage(), 3);
}

TEST(RpState, CnpResetsStages) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  rp.advance_to(3 * p.rpg_time_reset);
  EXPECT_EQ(rp.timer_stage(), 3);
  rp.on_cnp(3 * p.rpg_time_reset + microseconds(10));
  EXPECT_EQ(rp.timer_stage(), 0);
  EXPECT_EQ(rp.byte_stage(), 0);
}

TEST(RpState, ParamChangesTakeEffect) {
  DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  rp.on_cnp(0);
  p.rpg_time_reset = microseconds(100);  // live-tune the period
  rp.restart_timers(microseconds(10));
  rp.advance_to(microseconds(10) + 3 * microseconds(100));
  EXPECT_EQ(rp.timer_stage(), 3);
}

TEST(RpState, HigherHaiRateRecoversFaster) {
  // hai_rate's single-parameter impact (Fig. 5) is the ramp back to line
  // rate once congestion clears. Two spaced cuts drop the target rate too
  // (Rt = 5G, Rc = 2.5G), so fast recovery alone only restores 5G and
  // reclaiming line rate needs the target growth hai_rate governs. Then
  // the RP sends uncongested in 10 us steps to 50 ms.
  // The ramp time and the MB sent in the first 5 ms, as the Fig. 5 table
  // prints them (two decimals).
  struct Row {
    double hai_mbps;
    const char* ramp_to_90pct_ms;
    const char* mb_in_5ms;
  };
  constexpr Row kRows[] = {{5, "2.06", "5.16"},
                           {20, "1.26", "5.54"},
                           {50, "0.97", "5.68"},
                           {100, "0.81", "5.75"},
                           {200, "0.70", "5.80"}};
  const auto two_decimals = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return std::string(buf);
  };
  const Rate line = gbps(10);
  double prev_ramp_ms = 1e9;
  double prev_mb = 0.0;
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.hai_mbps);
    DcqcnParams p =
        scaled_for_line_rate(default_params(), gbps(100), gbps(10));
    p.rpg_time_reset = microseconds(100);
    p.rpg_byte_reset = 16 << 10;
    p.hai_rate = mbps(row.hai_mbps);
    RpState rp(&p, line, 0);
    rp.on_cnp(0);
    rp.on_cnp(p.rate_reduce_monitor_period + microseconds(1));
    Time t = p.rate_reduce_monitor_period + microseconds(1);
    double ramp_ms = -1.0;
    double bytes_5ms = 0.0;
    const Time step = microseconds(10);
    while (t < milliseconds(50)) {
      t += step;
      rp.advance_to(t);
      const double bytes = rp.current_rate() * to_sec(step) / 8.0;
      rp.on_bytes_sent(static_cast<std::int64_t>(bytes), t);
      if (t <= milliseconds(5)) bytes_5ms += bytes;
      if (ramp_ms < 0 && rp.current_rate() >= 0.9 * line) ramp_ms = to_ms(t);
    }
    ASSERT_GT(ramp_ms, 0.0) << "never got back to 90% of line rate";
    const double mb = bytes_5ms / 1e6;
    EXPECT_LT(ramp_ms, prev_ramp_ms);
    EXPECT_GT(mb, prev_mb);
    EXPECT_EQ(two_decimals(ramp_ms), row.ramp_to_90pct_ms);
    EXPECT_EQ(two_decimals(mb), row.mb_in_5ms);
    prev_ramp_ms = ramp_ms;
    prev_mb = mb;
  }
}

TEST(NpState, PacesCnps) {
  NpState np;
  EXPECT_TRUE(np.try_emit(0, microseconds(50)));
  EXPECT_FALSE(np.try_emit(microseconds(10), microseconds(50)));
  EXPECT_FALSE(np.try_emit(microseconds(49), microseconds(50)));
  EXPECT_TRUE(np.try_emit(microseconds(50), microseconds(50)));
}

// Property sweep: for any mix of CNPs and increase events, invariants hold.
class RpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpPropertyTest, RatesStayInBoundsAndAlphaIn01) {
  const DcqcnParams p = test_params();
  RpState rp(&p, kLine, 0);
  Rng rng(GetParam());
  Time t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<Time>(rng.uniform(100, 50000));
    const double action = rng.uniform();
    if (action < 0.3) {
      rp.on_cnp(t);
    } else if (action < 0.6) {
      rp.on_bytes_sent(static_cast<std::int64_t>(rng.uniform(100, 100000)),
                       t);
    } else {
      rp.advance_to(t);
    }
    EXPECT_GE(rp.current_rate(), p.min_rate);
    EXPECT_LE(rp.current_rate(), kLine);
    EXPECT_GE(rp.target_rate(), p.min_rate);
    EXPECT_LE(rp.target_rate(), kLine);
    EXPECT_GE(rp.alpha(), 0.0);
    EXPECT_LE(rp.alpha(), 1.0);
    EXPECT_LE(rp.next_deadline(),
              t + std::max(p.rpg_time_reset, p.alpha_update_period));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace paraleon::dcqcn
