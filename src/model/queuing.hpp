// G/G/1 queuing model of the banked GDDR memory system (Sec. III-C3).
//
// Each memory bank is a server with a general arrival process and a general
// service process (service times cluster on the row-buffer hit / miss /
// conflict latencies, arrivals are bursty on GPUs — c_a up to ~2.2 in the
// paper's GPGPU-Sim study). The average queuing delay uses Kingman's
// approximation exactly as the paper writes it (Eq. 9):
//
//     W_q ≈ ((c_a + c_s) / 2) * (rho / (1 - rho)) * tau_a
//
// (Note: the paper's form uses c, not c^2, and tau_a; since rho*tau_a =
// tau_s this matches the textbook heavy-traffic form up to the variability
// exponent. We implement the paper's equation.)
//
// Robustness: the delay functions never return NaN/inf. Degenerate inputs
// (zero inter-arrival time with a nonzero arrival rate, negative or
// non-finite moments — all possible with caller-built GG1Bank values or
// under fault injection) are clamped to the kRhoMax saturation point, and
// the aggregate QueuingResult carries a `saturated` flag so the caller can
// tell a trustworthy latency from a clamped one.
#pragma once

#include <vector>

#include "arch/gpu_arch.hpp"
#include "model/trace_analysis.hpp"

namespace gpuhms {

struct GG1Bank {
  double tau_a = 0.0;    // mean inter-arrival time (cycles)
  double sigma_a = 0.0;  // stddev of inter-arrival time
  double tau_s = 0.0;    // mean service time (cycles)
  double sigma_s = 0.0;  // stddev of service time
  double lambda = 0.0;   // arrival rate (1 / tau_a)

  double ca() const { return tau_a > 0.0 ? sigma_a / tau_a : 0.0; }
  double cs() const { return tau_s > 0.0 ? sigma_s / tau_s : 0.0; }
  double rho() const { return tau_a > 0.0 ? tau_s / tau_a : 0.0; }
};

// The utilization at which a bank's queue is clamped: a bank driven at or
// beyond saturation has unbounded G/G/1 delay, while the real system
// throttles arrivals through finite warp counts.
inline constexpr double kRhoMax = 0.95;

// Kingman's approximation (paper Eq. 9), with rho clamped to kRhoMax.
// Always finite and non-negative; `saturated` (when provided) is set to true
// if the bank was clamped (rho >= kRhoMax) or its inputs were degenerate,
// left unchanged otherwise.
double kingman_queue_delay(const GG1Bank& bank, bool* saturated = nullptr);

// The Markovian alternative the paper argues *against* (Sec. III-C3): an
// M/M/1 queue, W_q = (rho / (1 - rho)) * tau_s, which assumes exponential
// arrivals and service — i.e. ignores the measured variability entirely.
// Kept for the comparison bench that reproduces the paper's argument.
// Same clamping/saturation contract as kingman_queue_delay.
double mm1_queue_delay(const GG1Bank& bank, bool* saturated = nullptr);

struct QueuingResult {
  double dram_lat = 0.0;        // Eq. 7: lambda-weighted per-bank latency
  double avg_queue_delay = 0.0; // lambda-weighted W_q
  double avg_service = 0.0;     // lambda-weighted service time (Eq. 8 aggregate)
  // At least one contributing bank ran at or past the kRhoMax clamp, or had
  // degenerate (zero/negative/non-finite) queuing inputs: the latencies
  // above are a saturation floor, not a faithful G/G/1 estimate.
  bool saturated = false;
};

// Builds per-bank G/G/1 inputs from the trace analysis bank streams.
// `tick_to_cycles` converts the analysis instruction-slot clock into cycles
// (calibrated from the sample placement: measured time / trace ticks).
std::vector<GG1Bank> build_bank_inputs(const PlacementEvents& ev,
                                       double tick_to_cycles);

// Eq. 6/7: per-bank latency = W_q + service, aggregated over banks weighted
// by arrival rate. The result is always finite.
QueuingResult dram_latency_gg1(const std::vector<GG1Bank>& banks);

// Same aggregation with M/M/1 per-bank delays.
QueuingResult dram_latency_mm1(const std::vector<GG1Bank>& banks);

// The constant-latency alternative the ablations compare against
// (Sec. V-B / Fig. 9 "no queuing model"): unloaded average service by
// row-buffer outcome mix, no queuing delay (Eq. 8 only).
double dram_latency_constant(const PlacementEvents& ev, const GpuArch& arch);

// --- Admissible relaxations for lower bounds (branch-and-bound search) ------
// Eq. 9 with zero contention: W_q >= 0 for every G/G/1 arrival/service
// process (Kingman's delay is a product of non-negative factors, and the
// saturation clamp only raises it), so a lower bound may drop the queuing
// delay entirely. Named so the relaxation is visible at call sites.
constexpr double queue_delay_floor() { return 0.0; }

// Floor on the Eq. 8 unloaded bank service time: every row-buffer outcome
// costs at least the row-hit service, and dram_latency_constant's
// no-DRAM-traffic fallback is the even larger row-miss constant.
double bank_service_floor(const GpuArch& arch);

}  // namespace gpuhms
