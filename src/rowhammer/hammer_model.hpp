// RowHammer fault model.
//
// Physical basis (Kim et al. ISCA'14, revisited ISCA'20): repeatedly
// activating an aggressor row disturbs the charge of physically adjacent
// victim rows; once the accumulated activation count since the victim's last
// refresh crosses a per-cell threshold, susceptible cells flip toward their
// discharged value (true-cells 1->0, anti-cells 0->1).
//
// Model: each cell (row, col, bit) is vulnerable with probability
// p_vulnerable (decided by a seeded hash, so the susceptibility map is a
// stable property of the "chip"); each vulnerable cell draws a personal
// threshold in [T_RH, (1+spread) * T_RH]. A per-row disturbance counter
// accumulates adjacent-aggressor ACTs and resets whenever the row is
// restored. This reproduces exactly the attacker workflow the paper assumes:
// memory templating discovers flippable cells, massaging places victim data
// on them, and hammering past T_RH flips them -- unless a defense refreshes
// the victim first.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "dram/dram_device.hpp"
#include "sys/rng.hpp"

namespace dnnd::rowhammer {

/// Tunables of the fault model.
struct HammerModelConfig {
  double p_vulnerable = 0.03;    ///< fraction of cells that can flip at all
  double threshold_spread = 0.5; ///< per-cell threshold in [T_RH, (1+spread)*T_RH]
  u64 seed = 0xD15EA5Eu;         ///< susceptibility map seed ("chip identity")
  bool directional = true;       ///< true-/anti-cell behaviour (flip only from charged state)
};

/// One vulnerable cell of a row, ground truth view (tests & templating oracle).
struct VulnerableCell {
  usize col = 0;          ///< byte within the row
  u32 bit = 0;            ///< bit within the byte
  u64 threshold = 0;      ///< disturbance count at which it flips
  bool one_to_zero = true;///< true-cell (1->0) vs anti-cell (0->1)
};

/// Listens to a DramDevice and injects RowHammer bit flips.
class HammerModel final : public dram::RowEventListener {
 public:
  HammerModel(dram::DramDevice& device, HammerModelConfig cfg);
  ~HammerModel() override;

  HammerModel(const HammerModel&) = delete;
  HammerModel& operator=(const HammerModel&) = delete;

  // RowEventListener
  void on_activate(const dram::RowAddr& row, Picoseconds now) override;
  void on_restore(const dram::RowAddr& row, Picoseconds now, dram::RestoreKind kind) override;
  /// Quiet until some row near the aggressors reaches the threshold of its
  /// next candidate cell (the ACT that would flip it, or pass it over).
  u64 quiet_horizon(const dram::ActPattern& p, u64 want) override;
  void skip_quiet(const dram::ActPattern& p, u64 k) override;

  /// Current disturbance (adjacent ACTs since last restore) of a row.
  [[nodiscard]] u64 disturbance(const dram::RowAddr& row) const;

  /// Ground-truth susceptibility of a row, sorted by ascending threshold.
  /// Attackers should not call this directly -- they discover the same
  /// information through HammerAttacker templating; tests use it as oracle.
  [[nodiscard]] const std::vector<VulnerableCell>& vulnerable_cells(const dram::RowAddr& row);

  /// Ground truth: is a specific cell flippable, and in which direction?
  [[nodiscard]] std::optional<VulnerableCell> cell_info(const dram::RowAddr& row, usize col,
                                                        u32 bit);

  /// Total flips injected by this model.
  [[nodiscard]] u64 flips_injected() const { return flips_injected_; }

  [[nodiscard]] const HammerModelConfig& config() const { return cfg_; }

 private:
  struct RowState {
    u64 disturbance = 0;
    bool cells_built = false;
    std::vector<VulnerableCell> cells;  ///< sorted by threshold
    std::vector<bool> discharged;       ///< cell flipped & not yet rewritten
    usize next_candidate = 0;           ///< index into `cells` for the scan
  };

  /// A row an ACT pattern touches: bit j of `bumped_by` is set when an ACT
  /// of aggressors[j] disturbs it; `self` is its own index among the
  /// aggressors (restored by its ACTs), or -1.
  struct Touched {
    RowState* state;
    u64 bumped_by;
    int self;
  };

  RowState& state_for(u64 flat_id, const dram::RowAddr& row);
  void build_cells(RowState& st, const dram::RowAddr& row) const;
  void bump_and_maybe_flip(const dram::RowAddr& victim);
  /// The rows `aggressors` touch, cached for the last aggressor list seen.
  /// Empty when the list is too long to describe with a 64-bit mask.
  const std::vector<Touched>& touched_by(std::span<const dram::RowAddr> aggressors);

  dram::DramDevice& device_;
  HammerModelConfig cfg_;
  std::unordered_map<u64, RowState> rows_;  ///< node-based: RowState* stay valid
  u64 flips_injected_ = 0;
  std::vector<dram::RowAddr> touched_key_;
  std::vector<Touched> touched_;
};

}  // namespace dnnd::rowhammer
