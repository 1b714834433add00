// Common interface for RowHammer mitigations.
//
// A mitigation observes DRAM row events (aggressor tracking) and/or runs on a
// time schedule (proactive swapping). The protected system pumps `tick()`
// after every attacker ACT -- the transaction-level equivalent of the defense
// sharing the command bus. Mitigation maintenance issues real device commands
// (RowClone, activations, row reads/writes), so its latency and energy
// overheads are measured, not asserted.
#pragma once

#include <algorithm>
#include <optional>
#include <string>

#include "dram/dram_device.hpp"
#include "dram/row_remapper.hpp"
#include "sys/rng.hpp"

namespace dnnd::defense {

/// Cumulative cost counters of a mitigation.
struct DefenseStats {
  u64 maintenance_ops = 0;       ///< swaps / shuffles / neighbor refreshes
  u64 tracker_accesses = 0;      ///< SRAM/CAM tracker operations
  Picoseconds time_spent = 0;    ///< device time consumed by maintenance
  Femtojoules energy_spent = 0;  ///< maintenance energy (incl. tracker)
};

class Mitigation : public dram::RowEventListener {
 public:
  Mitigation(dram::DramDevice& device, dram::RowRemapper& remap)
      : device_(device), remap_(remap) {
    device_.add_listener(this);
  }
  ~Mitigation() override { device_.remove_listener(this); }

  Mitigation(const Mitigation&) = delete;
  Mitigation& operator=(const Mitigation&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Performs maintenance that is due at device.now(). Reactive defenses may
  /// do all their work in on_activate and leave this empty.
  virtual void tick() {}

  /// Default event handlers: no-ops (proactive defenses override nothing,
  /// reactive ones override on_activate).
  void on_activate(const dram::RowAddr&, Picoseconds) override {}
  void on_restore(const dram::RowAddr&, Picoseconds, dram::RestoreKind) override {}

  // A mitigation's quiet_horizon (RowEventListener, default 0) covers its
  // tick() as well as its event handlers: the protected system runs tick()
  // after every attacker ACT, and asks the same horizon before skipping
  // those ticks.

  [[nodiscard]] const DefenseStats& stats() const { return stats_; }

 protected:
  /// Runs `fn` with re-entrance protection (maintenance issues device
  /// commands, which fire events back into this listener) and charges its
  /// device time to the defense.
  template <typename Fn>
  void maintenance(Fn&& fn) {
    if (in_maintenance_) return;
    in_maintenance_ = true;
    const Picoseconds t0 = device_.now();
    const Femtojoules e0 = device_.stats().energy;
    fn();
    stats_.time_spent += device_.now() - t0;
    stats_.energy_spent += device_.stats().energy - e0;
    in_maintenance_ = false;
  }

  /// Charges `n` tracker accesses (SRAM lookup + energy, no bus time).
  void charge_tracker_access(u64 n = 1) {
    stats_.tracker_accesses += n;
    stats_.energy_spent += static_cast<Femtojoules>(n) * device_.config().energy.sram_access;
  }

  /// `fraction` of T_RH in ACTs, truncated (a counter threshold).
  [[nodiscard]] u64 t_rh_fraction(double fraction) const {
    return static_cast<u64>(fraction * static_cast<double>(device_.config().t_rh));
  }

  /// Quiet horizon of a per-row activation counter that triggers
  /// maintenance when it reaches `threshold` (0 = never): the largest
  /// k <= want for which no aggressor's count reaches it within the next k
  /// ACTs of `p`. `count_of(row)` is the row's count, or nullopt when
  /// counting it would insert into or evict from a tracker.
  template <typename CountOf>
  static u64 counter_horizon(const dram::ActPattern& p, u64 want, u64 threshold,
                             CountOf&& count_of) {
    for (usize j = 0; j < p.aggressors.size(); ++j) {
      const std::optional<u64> count = count_of(p.aggressors[j]);
      if (!count.has_value()) return 0;
      if (threshold == 0) continue;
      const u64 budget = *count < threshold ? threshold - 1 - *count : 0;
      want = std::min(want, p.max_acts_with(j, budget));
    }
    return want;
  }

  [[nodiscard]] bool in_maintenance() const { return in_maintenance_; }

  dram::DramDevice& device_;
  dram::RowRemapper& remap_;
  DefenseStats stats_;

 private:
  bool in_maintenance_ = false;
};

}  // namespace dnnd::defense
