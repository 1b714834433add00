// DNN-Defender -- the paper's contribution: a victim-focused, in-DRAM,
// priority-driven swap defense for quantized DNN weights.
//
// Given the target rows selected by the PriorityProfiler, the defender swaps
// every target once per RowHammer window (t_act * T_RH), spreading swaps
// uniformly so no target can accumulate T_RH disturbances between two
// refreshes. Swaps run the four-step RowClone chain of SwapEngine, cycling
// the configured non-target victim rows through step 4 so they get low-cost
// protection too (Algorithm 1). Purely time-scheduled: no per-row counters,
// no SRAM/CAM, no capacity overhead.
#pragma once

#include <vector>

#include "core/swap_engine.hpp"
#include "core/swap_scheduler.hpp"
#include "defense/mitigation.hpp"

namespace dnnd::core {

struct DnnDefenderConfig {
  u32 reserved_rows_per_subarray = 1;
  /// 0 = derive from the hammer window: interval = (t_act * T_RH) / #targets.
  Picoseconds swap_interval = 0;
  /// Step-4 staging (Fig. 6 pipelining). Disable for the serial-swap ablation.
  bool enable_staging = true;
  u64 seed = 0xDD5EED;
};

class DnnDefender final : public defense::Mitigation {
 public:
  DnnDefender(dram::DramDevice& device, dram::RowRemapper& remap, DnnDefenderConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "DNN-Defender"; }

  /// Installs the protection sets. `targets` in priority order (profiler
  /// output); `non_targets` are lower-priority victim rows cycled through
  /// step 4. Resets the schedule.
  void set_protected_rows(std::vector<dram::RowAddr> targets,
                          std::vector<dram::RowAddr> non_targets);

  /// Executes all swaps that are due at device.now(). Call often (the
  /// protected system pumps this from the attacker's post-ACT hook).
  void tick() override;

  /// Quiet while no swap comes due: tick() after each of the next k ACTs
  /// still sees the clock before `next_due_`.
  u64 quiet_horizon(const dram::ActPattern& p, u64 want) override;

  /// True if `logical` is one of the defended target rows.
  [[nodiscard]] bool is_target(const dram::RowAddr& logical) const;

  [[nodiscard]] const std::vector<dram::RowAddr>& targets() const { return targets_; }
  [[nodiscard]] const std::vector<dram::RowAddr>& non_targets() const { return non_targets_; }
  [[nodiscard]] const SwapStats& swap_stats() const { return engine_.stats(); }
  [[nodiscard]] Picoseconds swap_interval() const { return interval_; }

  /// Protection feasibility: targets this bank count vs. the window budget.
  [[nodiscard]] bool schedule_feasible() const { return feasible_; }

 private:
  void recompute_schedule();

  DnnDefenderConfig cfg_;
  SwapEngine engine_;
  sys::Rng rng_;
  std::vector<dram::RowAddr> targets_;
  std::vector<dram::RowAddr> non_targets_;
  usize target_cursor_ = 0;
  usize non_target_cursor_ = 0;
  Picoseconds interval_ = 0;
  Picoseconds next_due_ = 0;
  bool feasible_ = true;
};

}  // namespace dnnd::core
