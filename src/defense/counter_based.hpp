// Counter-based victim-refresh mitigations, unified: an activation tracker
// (per-row counters, Misra-Gries summary, counter tree, or hybrid SRAM/DRAM)
// detects hot aggressors and proactively refreshes their neighbours before
// T_RH is reached. Functionally sound even against white-box attacks, but
// they pay the tracker capacity/latency/energy overheads Table 2 itemises --
// exactly the cost DNN-Defender avoids.
//
// Presets model Graphene (MICRO'20), TWiCE (ISCA'19), Hydra (ISCA'22),
// Counter-per-Row, and Counter Tree (CAL'16).
#pragma once

#include <unordered_map>

#include "defense/mitigation.hpp"

namespace dnnd::defense {

enum class TrackerKind {
  kPerRow,      ///< one counter per row, stored in DRAM
  kMisraGries,  ///< frequent-item summary in SRAM/CAM
  kTree,        ///< counter tree in DRAM
  kHybrid,      ///< SRAM cache backed by DRAM counters (Hydra)
};

struct CounterBasedConfig {
  std::string name = "counter";
  TrackerKind tracker = TrackerKind::kMisraGries;
  double refresh_threshold_fraction = 0.25;  ///< refresh neighbours at f * T_RH
                                             ///< (double-sided pairs deposit 2/tracked ACT)
  usize table_entries = 128;                ///< tracker budget (kMisraGries/kHybrid)
  bool counters_in_dram = false;            ///< each update costs a DRAM access
};

class CounterBased : public Mitigation {
 public:
  CounterBased(dram::DramDevice& device, dram::RowRemapper& remap, CounterBasedConfig cfg);

  [[nodiscard]] std::string name() const override { return cfg_.name; }
  void on_activate(const dram::RowAddr& row, Picoseconds now) override;
  /// Quiet until an aggressor's count reaches the refresh threshold; a
  /// summary tracker (kMisraGries, kHybrid) also needs an entry for every
  /// aggressor already.
  u64 quiet_horizon(const dram::ActPattern& p, u64 want) override;
  void skip_quiet(const dram::ActPattern& p, u64 k) override;

  [[nodiscard]] u64 refreshes_issued() const { return refreshes_; }

  // ----- presets -----
  static CounterBasedConfig graphene();
  static CounterBasedConfig twice();
  static CounterBasedConfig hydra();
  static CounterBasedConfig counter_per_row();
  static CounterBasedConfig counter_tree();

 private:
  void refresh_neighbors(const dram::RowAddr& hot);
  /// Charges the cost of `n` counter updates.
  void charge_updates(u64 n);
  u64 track(const dram::RowAddr& row);
  [[nodiscard]] bool exact_counts() const {
    return cfg_.tracker == TrackerKind::kPerRow || cfg_.tracker == TrackerKind::kTree;
  }

  CounterBasedConfig cfg_;
  std::unordered_map<u64, u64> counts_;
  std::unordered_map<u32, usize> entries_per_bank_;
  u64 refreshes_ = 0;
};

}  // namespace dnnd::defense
