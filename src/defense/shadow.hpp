// SHADOW (Wi et al., HPCA'23) -- intra-subarray row shuffling. The strongest
// prior mechanism in the paper's comparison and, with DNN-Defender, the only
// one that withstands the complete white-box attack: when an aggressor's
// activation estimate crosses the shuffle threshold, its *victim* rows are
// relocated to a fresh position inside the subarray via in-DRAM copies
// (through one reserved row per subarray). Relocation rewrites the victim's
// cells, resetting accumulated disturbance -- victim-focused protection, like
// DNN-Defender, but triggered reactively per hot aggressor and therefore
// costlier per defended attack (Fig. 8(b)).
#pragma once

#include <unordered_map>

#include "defense/mitigation.hpp"

namespace dnnd::defense {

struct ShadowConfig {
  /// Shuffle when an aggressor's count reaches fraction * T_RH. A double-
  /// sided pair deposits two disturbances per tracked ACT, so the fraction
  /// must stay below 0.5 for the victim to be moved ahead of threshold.
  double shuffle_threshold_fraction = 0.2;
  u64 seed = 0x54AD0;
};

class Shadow : public Mitigation {
 public:
  Shadow(dram::DramDevice& device, dram::RowRemapper& remap, ShadowConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "SHADOW"; }
  void on_activate(const dram::RowAddr& row, Picoseconds now) override;
  /// Quiet until an aggressor's count reaches the shuffle threshold.
  u64 quiet_horizon(const dram::ActPattern& p, u64 want) override;
  void skip_quiet(const dram::ActPattern& p, u64 k) override;

  [[nodiscard]] u64 shuffles_performed() const { return shuffles_; }

  /// The physical row each subarray dedicates to shuffling (its DRAM
  /// capacity overhead: 1 row per subarray, Table 2's 0.16 MB at 32 GB).
  [[nodiscard]] u32 reserved_row() const;

 private:
  /// Relocates victim `v` to a random free slot of its subarray through the
  /// reserved row: v -> reserved, displaced -> v, reserved -> displaced.
  void shuffle_victim(const dram::RowAddr& v);

  ShadowConfig cfg_;
  sys::Rng rng_;
  std::unordered_map<u64, u64> act_counts_;  ///< in-DRAM per-row counters
  u64 shuffles_ = 0;
};

}  // namespace dnnd::defense
