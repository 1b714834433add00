// RowHammer attacker primitives: hammering loops (single-/double-sided) and
// memory templating (the profiling step DeepHammer/Blacksmith-style attacks
// use to discover flippable cells before placing victim data on them).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "rowhammer/hammer_model.hpp"

namespace dnnd::rowhammer {

/// Outcome of one hammering campaign against a victim row.
struct HammerResult {
  u64 activations = 0;            ///< total aggressor ACTs issued
  Picoseconds elapsed = 0;        ///< device time consumed
  struct Flip {
    usize col;
    u32 bit;
    u8 before;  ///< byte value before
    u8 after;   ///< byte value after
  };
  std::vector<Flip> flips;        ///< observed changes in the victim row

  [[nodiscard]] bool any_flip() const { return !flips.empty(); }
};

/// A flippable cell discovered by templating (attacker's view -- found by
/// hammering with known data patterns, not by querying the fault model).
struct TemplateEntry {
  dram::RowAddr row;
  usize col = 0;
  u32 bit = 0;
  bool one_to_zero = true;
};

/// Drives hammer attacks against a DramDevice with a HammerModel attached.
class HammerAttacker {
 public:
  HammerAttacker(dram::DramDevice& device, sys::Rng rng);

  /// Invoked after every ACT the attacker issues. The protected system uses
  /// this to let the defense execute swaps that are due, interleaving victim
  /// traffic with the attack exactly as a shared command bus would.
  using PostActHook = std::function<void()>;
  /// The hook's quiet horizon: over how many of the next ACTs of a pattern
  /// (at most `want`) the hook does nothing. Without one, every ACT runs
  /// the hook.
  using HookHorizon = std::function<u64(const dram::ActPattern& p, u64 want)>;
  void set_post_act_hook(PostActHook hook, HookHorizon horizon = {}) {
    post_act_ = std::move(hook);
    post_act_horizon_ = std::move(horizon);
  }

  /// Issues `n_acts` ACTs round-robin over `aggressors` (each ACT implicitly
  /// precharges the previous row, which is what makes hammering effective).
  /// Aggressors must share a bank for the row buffer to thrash. Runs of ACTs
  /// that the device, its listeners and the hook all report quiet are
  /// applied in bulk (DramDevice::activate_quiet), with the same result as
  /// issuing them one by one. Throws std::invalid_argument for an empty
  /// aggressor list.
  void hammer(std::span<const dram::RowAddr> aggressors, u64 n_acts);

  /// Single-sided attack: hammers victim.row+1 (or victim.row-1 at the top
  /// edge) alternated with a distant dummy row in the same bank.
  HammerResult single_sided(const dram::RowAddr& victim, u64 max_acts);

  /// Double-sided attack: hammers victim.row-1 and victim.row+1 alternately.
  /// Falls back to single-sided at subarray edges.
  HammerResult double_sided(const dram::RowAddr& victim, u64 max_acts);

  /// Memory templating over one subarray: writes an all-ones pattern to each
  /// probed victim row, double-side hammers it `acts_per_pattern` times,
  /// reads back the diff (discovers 1->0 cells), repeats with all-zeros
  /// (0->1 cells), then restores the original data. Probes rows
  /// [row_begin, row_end).
  std::vector<TemplateEntry> template_rows(u32 bank, u32 subarray, u32 row_begin, u32 row_end,
                                           u64 acts_per_pattern);

 private:
  HammerResult run_campaign(const dram::RowAddr& victim,
                            std::span<const dram::RowAddr> aggressors, u64 max_acts);

  dram::DramDevice& device_;
  sys::Rng rng_;
  PostActHook post_act_;
  HookHorizon post_act_horizon_;
};

}  // namespace dnnd::rowhammer
