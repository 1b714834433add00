// PARA (Kim et al., ISCA'14): probabilistic adjacent-row activation. On every
// ACT, with probability p, the neighbours are refreshed. Stateless (no
// tracker) but only probabilistically secure; included as the classic
// baseline and for overhead comparison.
#pragma once

#include "defense/mitigation.hpp"

namespace dnnd::defense {

struct ParaConfig {
  double refresh_probability = 0.01;
  u64 seed = 0xBA5A;
};

class Para : public Mitigation {
 public:
  Para(dram::DramDevice& device, dram::RowRemapper& remap, ParaConfig cfg = {})
      : Mitigation(device, remap), cfg_(cfg), rng_(cfg.seed) {}

  [[nodiscard]] std::string name() const override { return "PARA"; }

  void on_activate(const dram::RowAddr& row, Picoseconds /*now*/) override {
    if (in_maintenance()) return;
    if (!next_draw()) return;
    maintenance([&] {
      const auto& geo = device_.config().geo;
      if (row.row >= 1) {
        device_.activate(dram::RowAddr{row.bank, row.subarray, row.row - 1});
        device_.precharge(row.bank);
      }
      if (row.row + 1 < geo.rows_per_subarray) {
        device_.activate(dram::RowAddr{row.bank, row.subarray, row.row + 1});
        device_.precharge(row.bank);
      }
      stats_.maintenance_ops += 1;
    });
  }

  /// Quiet for as many ACTs as its pre-drawn run of "no refresh" outcomes;
  /// draws ahead (in order, from the same RNG) up to `want` or the first
  /// "refresh".
  u64 quiet_horizon(const dram::ActPattern& /*p*/, u64 want) override {
    while (drawn_quiet_ < want && !drawn_refresh_) {
      if (rng_.bernoulli(cfg_.refresh_probability)) {
        drawn_refresh_ = true;
      } else {
        ++drawn_quiet_;
      }
    }
    return std::min(drawn_quiet_, want);
  }
  void skip_quiet(const dram::ActPattern& /*p*/, u64 k) override { drawn_quiet_ -= k; }

 private:
  /// The next Bernoulli outcome: pre-drawn ones first, in draw order.
  bool next_draw() {
    if (drawn_quiet_ > 0) {
      --drawn_quiet_;
      return false;
    }
    if (drawn_refresh_) {
      drawn_refresh_ = false;
      return true;
    }
    return rng_.bernoulli(cfg_.refresh_probability);
  }

  ParaConfig cfg_;
  sys::Rng rng_;
  u64 drawn_quiet_ = 0;         ///< pre-drawn "no refresh" outcomes not yet used
  bool drawn_refresh_ = false;  ///< a pre-drawn "refresh" follows them
};

}  // namespace dnnd::defense
