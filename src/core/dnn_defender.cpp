#include "core/dnn_defender.hpp"

#include <algorithm>

namespace dnnd::core {

using dram::RowAddr;

DnnDefender::DnnDefender(dram::DramDevice& device, dram::RowRemapper& remap,
                         DnnDefenderConfig cfg)
    : Mitigation(device, remap),
      cfg_(cfg),
      engine_(device, remap, cfg.reserved_rows_per_subarray),
      rng_(cfg.seed) {}

void DnnDefender::set_protected_rows(std::vector<RowAddr> targets,
                                     std::vector<RowAddr> non_targets) {
  targets_ = std::move(targets);
  non_targets_ = std::move(non_targets);
  target_cursor_ = 0;
  non_target_cursor_ = 0;
  engine_.reset_pipeline();
  recompute_schedule();
}

void DnnDefender::recompute_schedule() {
  if (targets_.empty()) {
    interval_ = 0;
    feasible_ = true;
    return;
  }
  if (cfg_.swap_interval > 0) {
    interval_ = cfg_.swap_interval;
    feasible_ = true;
  } else {
    interval_ = swap_interval_for(targets_.size(), device_.config().timing,
                                  device_.config().t_rh);
    feasible_ = interval_ > 0;
    if (!feasible_) {
      // Over-subscribed: protect on a best-effort basis at the swap-rate
      // limit (some targets will rotate slower than the window).
      interval_ = device_.config().timing.t_swap();
    }
  }
  next_due_ = device_.now() + interval_;
}

void DnnDefender::tick() {
  if (targets_.empty() || interval_ == 0) return;
  // Drain only the backlog that existed on entry. Comparing against the live
  // clock would never converge on an infeasible (over-subscribed) schedule,
  // where each swap consumes device time at least as fast as the schedule
  // releases it.
  const Picoseconds deadline = device_.now();
  while (deadline >= next_due_) {
    maintenance([&] {
      const RowAddr target = targets_[target_cursor_];
      target_cursor_ = (target_cursor_ + 1) % targets_.size();
      const RowAddr* non_target = nullptr;
      RowAddr nt;
      if (cfg_.enable_staging && !non_targets_.empty()) {
        nt = non_targets_[non_target_cursor_];
        non_target_cursor_ = (non_target_cursor_ + 1) % non_targets_.size();
        non_target = &nt;
      }
      engine_.protect(target, non_target, rng_);
      stats_.maintenance_ops += 1;
    });
    next_due_ += interval_;
    // Bound the catch-up after long attacker-free gaps.
    if (next_due_ + 1000 * interval_ < device_.now()) {
      next_due_ = device_.now() + interval_;
    }
  }
}

u64 DnnDefender::quiet_horizon(const dram::ActPattern& /*p*/, u64 want) {
  if (targets_.empty() || interval_ == 0) return want;
  const Picoseconds now = device_.now();
  if (next_due_ <= now) return 0;
  return std::min<u64>(want, static_cast<u64>((next_due_ - now - 1) / device_.act_period()));
}

bool DnnDefender::is_target(const RowAddr& logical) const {
  return std::find(targets_.begin(), targets_.end(), logical) != targets_.end();
}

}  // namespace dnnd::core
