#include "model/queuing.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace gpuhms {
namespace {

GG1Bank bank(double tau_a, double sigma_a, double tau_s, double sigma_s) {
  GG1Bank b;
  b.tau_a = tau_a;
  b.sigma_a = sigma_a;
  b.tau_s = tau_s;
  b.sigma_s = sigma_s;
  b.lambda = tau_a > 0 ? 1.0 / tau_a : 0.0;
  return b;
}

TEST(Kingman, ZeroVariabilityZeroDelay) {
  // Deterministic arrivals and service (c_a = c_s = 0) -> no queuing delay
  // under the paper's Eq. 9 form.
  EXPECT_DOUBLE_EQ(kingman_queue_delay(bank(100, 0, 50, 0)), 0.0);
}

TEST(Kingman, GrowsWithUtilization) {
  const double d1 = kingman_queue_delay(bank(200, 100, 50, 25));
  const double d2 = kingman_queue_delay(bank(100, 50, 50, 25));
  const double d3 = kingman_queue_delay(bank(60, 30, 50, 25));
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
}

TEST(Kingman, GrowsWithArrivalVariability) {
  // Same rho, increasing c_a (the paper's bursty-GPU-arrivals point).
  const double low = kingman_queue_delay(bank(100, 50, 50, 0));
  const double high = kingman_queue_delay(bank(100, 220, 50, 0));
  EXPECT_LT(low, high);
  EXPECT_NEAR(high / low, 4.4, 1e-9);  // linear in c_a under Eq. 9
}

TEST(Kingman, SaturationClamped) {
  // rho >= 1 would blow up; the clamp keeps the delay finite.
  const double d = kingman_queue_delay(bank(10, 5, 50, 10));
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1e6);
}

TEST(Kingman, EmptyBankIsZero) {
  EXPECT_DOUBLE_EQ(kingman_queue_delay(GG1Bank{}), 0.0);
}

TEST(GG1Bank, DerivedQuantities) {
  const auto b = bank(100, 50, 25, 5);
  EXPECT_DOUBLE_EQ(b.ca(), 0.5);
  EXPECT_DOUBLE_EQ(b.cs(), 0.2);
  EXPECT_DOUBLE_EQ(b.rho(), 0.25);
}

TEST(DramLatencyGG1, WeightsByArrivalRate) {
  // A hot fast bank and a cold slow bank: the aggregate leans to the hot one.
  std::vector<GG1Bank> banks = {bank(10, 0, 5, 0), bank(1000, 0, 500, 0)};
  const auto r = dram_latency_gg1(banks);
  EXPECT_GT(r.dram_lat, 5.0);
  EXPECT_LT(r.dram_lat, 55.0);  // dominated by the lambda=0.1 bank
}

TEST(DramLatencyGG1, EmptySystem) {
  const auto r = dram_latency_gg1({});
  EXPECT_DOUBLE_EQ(r.dram_lat, 0.0);
}

TEST(DramLatencyGG1, SingleTouchBankContributesService) {
  GG1Bank b;
  b.tau_s = 400.0;  // touched once: no arrival stats
  const auto r = dram_latency_gg1({b});
  EXPECT_DOUBLE_EQ(r.dram_lat, 400.0);
  EXPECT_DOUBLE_EQ(r.avg_queue_delay, 0.0);
}

TEST(BuildBankInputs, ConvertsTicksToCycles) {
  PlacementEvents ev;
  ev.banks.resize(2);
  ev.banks[0].count = 3;
  ev.banks[0].interarrival.add(10.0);
  ev.banks[0].interarrival.add(20.0);
  ev.banks[0].service.add(400.0);
  ev.banks[0].service.add(700.0);
  const auto banks = build_bank_inputs(ev, 2.0);
  EXPECT_DOUBLE_EQ(banks[0].tau_a, 30.0);  // 15 ticks x 2 cycles/tick
  EXPECT_DOUBLE_EQ(banks[0].tau_s, 550.0);
  EXPECT_GT(banks[0].lambda, 0.0);
  EXPECT_DOUBLE_EQ(banks[1].tau_s, 0.0);  // untouched bank
}

TEST(BuildBankInputs, SingleRequestBankIsUnloaded) {
  PlacementEvents ev;
  ev.banks.resize(1);
  ev.banks[0].count = 1;
  ev.banks[0].service.add(426.0);
  const auto banks = build_bank_inputs(ev, 1.0);
  EXPECT_DOUBLE_EQ(banks[0].lambda, 0.0);
  EXPECT_DOUBLE_EQ(banks[0].tau_s, 426.0);
}

TEST(DramLatencyConstant, UsesRowOutcomeMix) {
  const GpuArch& arch = kepler_arch();
  PlacementEvents ev;
  ev.row_hits = 50;
  ev.row_misses = 25;
  ev.row_conflicts = 25;
  const double lat = dram_latency_constant(ev, arch);
  const double expect =
      0.5 * static_cast<double>(arch.dram.row_hit_service) +
      0.25 * static_cast<double>(arch.dram.row_miss_service) +
      0.25 * static_cast<double>(arch.dram.row_conflict_service);
  EXPECT_DOUBLE_EQ(lat, expect);
}

// --- randomized properties of the Eq. 9 Kingman form -------------------------

// W_q is strictly increasing in utilization: with the service process and
// the moment magnitudes fixed, pushing rho = tau_s/tau_a up (arrivals
// closing in on service) can only lengthen the queue. Substituting
// tau_a = tau_s/rho into Eq. 9 gives W_q = (sigma_a*rho + sigma_s)/(2(1-rho))
// — numerator rising, denominator falling.
TEST(KingmanProperty, MonotoneInUtilization) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 1000; ++trial) {
    const double tau_s = 1.0 + 500.0 * rng.next_double();
    const double sigma_s = tau_s * rng.next_double();
    const double sigma_a = 400.0 * rng.next_double();
    double prev = -1.0;
    for (const double rho : {0.05, 0.2, 0.4, 0.6, 0.8, 0.94}) {
      GG1Bank b;
      b.tau_a = tau_s / rho;
      b.sigma_a = sigma_a;
      b.tau_s = tau_s;
      b.sigma_s = sigma_s;
      b.lambda = 1.0 / b.tau_a;
      bool saturated = false;
      const double d = kingman_queue_delay(b, &saturated);
      EXPECT_FALSE(saturated) << "rho=" << rho;
      EXPECT_GE(d, 0.0);
      EXPECT_GT(d, prev) << "trial " << trial << " rho=" << rho;
      prev = d;
    }
  }
}

// With c_a = c_s = 1 (exponential-looking moments) the variability term of
// Eq. 9 collapses to 1 and Kingman degenerates to the Markovian queue. The
// paper's form scales by tau_a where the classic M/M/1 scales by tau_s, so
// the collapse reads: kingman = (rho/(1-rho)) * tau_a, equivalently
// kingman * tau_s == mm1 * tau_a.
TEST(KingmanProperty, CollapsesToMm1WhenCvIsOne) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 1000; ++trial) {
    const double tau_s = 1.0 + 300.0 * rng.next_double();
    const double rho = 0.02 + 0.9 * rng.next_double();
    GG1Bank b;
    b.tau_a = tau_s / rho;
    b.sigma_a = b.tau_a;  // c_a = 1
    b.tau_s = tau_s;
    b.sigma_s = tau_s;  // c_s = 1
    b.lambda = 1.0 / b.tau_a;
    const double kingman = kingman_queue_delay(b);
    const double mm1 = mm1_queue_delay(b);
    const double rho_term = rho / (1.0 - rho);
    EXPECT_NEAR(kingman, rho_term * b.tau_a, 1e-9 * (1.0 + kingman));
    EXPECT_NEAR(kingman * b.tau_s, mm1 * b.tau_a,
                1e-9 * (1.0 + kingman * b.tau_s));
  }
}

// rho -> 1 would make the rho/(1-rho) pole blow up; the kRhoMax clamp must
// keep the delay finite for arbitrarily saturated banks and report the
// clamping through `saturated`. Below the clamp the flag stays untouched.
TEST(KingmanProperty, FiniteAndFlaggedNearSaturation) {
  Rng rng(0xcafe);
  for (int trial = 0; trial < 1000; ++trial) {
    const double tau_s = 1.0 + 200.0 * rng.next_double();
    // rho in [0.951, ~20]: at or past the kRhoMax clamp.
    const double rho = 0.951 + 19.0 * rng.next_double();
    GG1Bank b;
    b.tau_a = tau_s / rho;
    b.sigma_a = b.tau_a * rng.next_double();
    b.tau_s = tau_s;
    b.sigma_s = tau_s * rng.next_double();
    b.lambda = 1.0 / b.tau_a;
    bool saturated = false;
    const double d = kingman_queue_delay(b, &saturated);
    EXPECT_TRUE(std::isfinite(d)) << "rho=" << rho;
    EXPECT_GE(d, 0.0);
    EXPECT_TRUE(saturated) << "rho=" << rho;
    // The clamp pins the delay at the kRhoMax pole: never beyond the value
    // the formula yields at rho = 0.95 exactly.
    const double at_clamp =
        ((b.ca() + b.cs()) / 2.0) * (0.95 / 0.05) * b.tau_a;
    EXPECT_LE(d, at_clamp * (1.0 + 1e-12));

    bool unsat = false;
    GG1Bank calm = b;
    calm.tau_a = tau_s / 0.5;
    calm.lambda = 1.0 / calm.tau_a;
    (void)kingman_queue_delay(calm, &unsat);
    EXPECT_FALSE(unsat);
  }
}

TEST(Mm1, ZeroWhenIdle) {
  EXPECT_DOUBLE_EQ(mm1_queue_delay(GG1Bank{}), 0.0);
}

TEST(Mm1, IgnoresVariability) {
  // Same rho, wildly different c_a: M/M/1 cannot tell them apart — the
  // paper's core criticism of Markovian queues for GPUs.
  const auto calm = bank(100, 0, 50, 0);
  const auto bursty = bank(100, 300, 50, 40);
  EXPECT_DOUBLE_EQ(mm1_queue_delay(calm), mm1_queue_delay(bursty));
  EXPECT_LT(kingman_queue_delay(calm), kingman_queue_delay(bursty));
}

TEST(Mm1, ClassicFormula) {
  // rho = 0.5 -> W_q = tau_s.
  EXPECT_DOUBLE_EQ(mm1_queue_delay(bank(100, 0, 50, 0)), 50.0);
}

TEST(DramLatencyMm1, AggregatesLikeGg1) {
  std::vector<GG1Bank> banks = {bank(100, 50, 50, 25), bank(200, 10, 20, 5)};
  const auto rg = dram_latency_gg1(banks);
  const auto rm = dram_latency_mm1(banks);
  EXPECT_GT(rm.dram_lat, 0.0);
  EXPECT_DOUBLE_EQ(rm.avg_service, rg.avg_service);  // same service mix
  EXPECT_NE(rm.avg_queue_delay, rg.avg_queue_delay);
}

TEST(DramLatencyConstant, FallsBackToMissServiceWhenNoData) {
  PlacementEvents ev;
  EXPECT_DOUBLE_EQ(dram_latency_constant(ev, kepler_arch()),
                   static_cast<double>(kepler_arch().dram.row_miss_service));
}

}  // namespace
}  // namespace gpuhms
