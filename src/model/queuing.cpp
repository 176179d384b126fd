#include "model/queuing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault_injection.hpp"
#include "common/obs.hpp"

namespace gpuhms {

namespace {

// A bank whose moments are usable by the paper's Eq. 9 as written. Banks
// that fail this (possible only with caller-built GG1Bank values or fault
// injection — build_bank_inputs always produces well-formed banks) take the
// clamped degenerate path below instead of propagating NaN/inf.
bool well_formed(const GG1Bank& b) {
  return std::isfinite(b.tau_a) && std::isfinite(b.tau_s) &&
         std::isfinite(b.sigma_a) && std::isfinite(b.sigma_s) &&
         std::isfinite(b.lambda) && b.sigma_a >= 0.0 && b.sigma_s >= 0.0 &&
         b.tau_a >= 0.0 && b.lambda >= 0.0 &&
         // tau_a == 0 is well-formed only as the "unloaded single-touch
         // bank" marker (lambda == 0); with a nonzero arrival rate it means
         // an infinitely loaded bank.
         (b.tau_a > 0.0 || b.lambda == 0.0);
}

// Sanitized coefficients of variation for the degenerate path: negative and
// non-finite moments contribute zero variability rather than poisoning the
// delay.
double safe_cv(double sigma, double tau) {
  if (!std::isfinite(sigma) || !std::isfinite(tau) || sigma <= 0.0 ||
      tau <= 0.0)
    return 0.0;
  return sigma / tau;
}

// Delay of a degenerate bank, pinned at the kRhoMax saturation point: the
// inter-arrival time that *would* produce kRhoMax (tau_s / kRhoMax) feeds
// the requested formula. Finite by construction.
double saturated_delay(const GG1Bank& b, bool kingman) {
  if (!std::isfinite(b.tau_s) || b.tau_s <= 0.0) return 0.0;
  const double rho_term = kRhoMax / (1.0 - kRhoMax);
  if (!kingman) return rho_term * b.tau_s;  // M/M/1
  const double tau_a_eff = b.tau_s / kRhoMax;
  const double variability =
      (safe_cv(b.sigma_a, tau_a_eff) + safe_cv(b.sigma_s, b.tau_s)) / 2.0;
  return variability * rho_term * tau_a_eff;
}

void flag(bool* saturated) {
  GPUHMS_COUNTER_ADD("queuing.saturation_events", 1);
  if (saturated) *saturated = true;
}

}  // namespace

double kingman_queue_delay(const GG1Bank& bank, bool* saturated) {
  if (!well_formed(bank)) {
    flag(saturated);
    return saturated_delay(bank, /*kingman=*/true);
  }
  if (bank.tau_a <= 0.0 || bank.tau_s <= 0.0) return 0.0;
  if (bank.rho() >= kRhoMax) flag(saturated);
  const double rho = std::min(bank.rho(), kRhoMax);
  const double variability = (bank.ca() + bank.cs()) / 2.0;
  return variability * (rho / (1.0 - rho)) * bank.tau_a;
}

double mm1_queue_delay(const GG1Bank& bank, bool* saturated) {
  if (!well_formed(bank)) {
    flag(saturated);
    return saturated_delay(bank, /*kingman=*/false);
  }
  if (bank.tau_a <= 0.0 || bank.tau_s <= 0.0) return 0.0;
  if (bank.rho() >= kRhoMax) flag(saturated);
  const double rho = std::min(bank.rho(), kRhoMax);
  return (rho / (1.0 - rho)) * bank.tau_s;
}

std::vector<GG1Bank> build_bank_inputs(const PlacementEvents& ev,
                                       double tick_to_cycles) {
  std::vector<GG1Bank> out;
  out.reserve(ev.banks.size());
  for (const BankStream& s : ev.banks) {
    GG1Bank b;
    if (s.count > 0) {
      b.tau_a = s.interarrival.mean() * tick_to_cycles;
      b.sigma_a = s.interarrival.stddev() * tick_to_cycles;
      b.tau_s = s.service.mean();
      b.sigma_s = s.service.stddev();
      b.lambda = b.tau_a > 0.0 ? 1.0 / b.tau_a : 0.0;
      // A bank touched once has no inter-arrival sample; treat it as
      // unloaded (no queuing).
      if (s.interarrival.count() == 0) {
        b.tau_a = 0.0;
        b.sigma_a = 0.0;
        b.lambda = 0.0;
      }
    }
    out.push_back(b);
  }
  if (fault::enabled()) {
    // Poison the first loaded bank: forced NaN moments or a driven-past-
    // saturation arrival rate. Exercises the degenerate-input clamps above
    // end to end (the prediction must stay finite, with `saturated` set).
    for (GG1Bank& b : out) {
      if (b.tau_s <= 0.0 || b.lambda <= 0.0) continue;
      if (fault::should_fire("queuing.nan"))
        b.sigma_a = std::numeric_limits<double>::quiet_NaN();
      if (fault::should_fire("queuing.saturate")) {
        b.tau_a = 0.0;  // zero inter-arrival time at a nonzero arrival rate
        b.sigma_a = 0.0;
      }
      break;
    }
  }
  return out;
}

namespace {

template <typename DelayFn>
QueuingResult aggregate_banks(const std::vector<GG1Bank>& banks,
                              DelayFn&& delay) {
  QueuingResult r;
  double weight_sum = 0.0;
  const bool observe = obs::metrics_active();
  for (const GG1Bank& b : banks) {
    // Per-bank utilization profile (percent, log2-bucketed); degenerate
    // rho values are clamped into the histogram's meaningful range.
    if (observe && b.tau_s > 0.0) {
      const double rho = b.rho();
      const std::uint64_t pct =
          std::isfinite(rho)
              ? static_cast<std::uint64_t>(std::clamp(rho, 0.0, 10.0) * 100.0)
              : 1000;
      GPUHMS_HISTOGRAM_RECORD("queuing.bank_utilization_pct", pct);
    }
    if (std::isnan(b.tau_s)) {
      // A NaN service time carries no usable information at all; flag it
      // and move on rather than letting it zero the whole aggregate.
      r.saturated = true;
      continue;
    }
    if (b.tau_s <= 0.0) continue;
    // Banks with a single request contribute their service time with a
    // nominal weight so sparse kernels still produce a latency. A degenerate
    // arrival rate gets the same nominal weight.
    const double w =
        std::isfinite(b.lambda) && b.lambda > 0.0 ? b.lambda : 1e-9;
    const double wq = delay(b, &r.saturated);
    r.dram_lat += w * (wq + b.tau_s);
    r.avg_queue_delay += w * wq;
    r.avg_service += w * b.tau_s;
    weight_sum += w;
  }
  if (weight_sum > 0.0) {
    r.dram_lat /= weight_sum;
    r.avg_queue_delay /= weight_sum;
    r.avg_service /= weight_sum;
  }
  return r;
}

}  // namespace

QueuingResult dram_latency_gg1(const std::vector<GG1Bank>& banks) {
  return aggregate_banks(banks, kingman_queue_delay);
}

QueuingResult dram_latency_mm1(const std::vector<GG1Bank>& banks) {
  return aggregate_banks(banks, mm1_queue_delay);
}

double bank_service_floor(const GpuArch& arch) {
  return static_cast<double>(arch.dram.row_hit_service);
}

double dram_latency_constant(const PlacementEvents& ev, const GpuArch& arch) {
  const double total = static_cast<double>(ev.row_hits + ev.row_misses +
                                           ev.row_conflicts);
  if (total == 0.0) {
    return static_cast<double>(arch.dram.row_miss_service);
  }
  const double hit_r = static_cast<double>(ev.row_hits) / total;
  const double miss_r = static_cast<double>(ev.row_misses) / total;
  const double conf_r = static_cast<double>(ev.row_conflicts) / total;
  return hit_r * static_cast<double>(arch.dram.row_hit_service) +
         miss_r * static_cast<double>(arch.dram.row_miss_service) +
         conf_r * static_cast<double>(arch.dram.row_conflict_service);
}

}  // namespace gpuhms
