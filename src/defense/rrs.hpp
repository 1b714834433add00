// Randomized Row-Swap (Saileshwar et al., ASPLOS'22) -- aggressor-focused
// baseline. An SRAM Misra-Gries tracker counts row activations; when a row's
// count reaches the swap threshold (a fraction of T_RH), the row is swapped
// with a random row of the same bank through the memory controller (reads +
// writes over the channel -- the expensive path RowClone avoids).
//
// Against the paper's complete white-box attacker this is structurally
// ineffective: the attacker tracks the *victim* and keeps hammering whatever
// physical row is adjacent to it, so the victim's disturbance accumulates
// across aggressor swaps. The simulator reproduces that failure.
#pragma once

#include <unordered_map>

#include "defense/mitigation.hpp"

namespace dnnd::defense {

struct RrsConfig {
  double swap_threshold_fraction = 0.5;  ///< swap at fraction * T_RH activations
  usize tracker_entries = 64;            ///< Misra-Gries table size per bank
  u64 seed = 0x5125;
};

class Rrs : public Mitigation {
 public:
  Rrs(dram::DramDevice& device, dram::RowRemapper& remap, RrsConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "RRS"; }
  void on_activate(const dram::RowAddr& row, Picoseconds now) override;
  /// Quiet while every aggressor already holds a tracker entry below the
  /// swap threshold.
  u64 quiet_horizon(const dram::ActPattern& p, u64 want) override;
  void skip_quiet(const dram::ActPattern& p, u64 k) override;

  [[nodiscard]] u64 swaps_performed() const { return swaps_; }

 protected:
  /// Swaps physical row `hot` with a random row in the same bank via
  /// controller-mediated reads/writes; updates the remapper.
  void swap_with_random(const dram::RowAddr& hot);

  /// Misra-Gries style decrement-on-full tracking; returns current estimate.
  u64 track(const dram::RowAddr& row);

  RrsConfig cfg_;
  sys::Rng rng_;
  /// flat physical row id -> activation estimate (per-bank tables merged;
  /// entry budget enforced per bank).
  std::unordered_map<u64, u64> counts_;
  std::unordered_map<u32, usize> entries_per_bank_;
  u64 swaps_ = 0;
};

}  // namespace dnnd::defense
