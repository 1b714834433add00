#include <gtest/gtest.h>

#include "rowhammer/attacker.hpp"
#include "rowhammer/hammer_model.hpp"

namespace dnnd::rowhammer {
namespace {

using dram::DramConfig;
using dram::DramDevice;
using dram::RowAddr;

DramConfig small_config(u32 t_rh = 1000) {
  DramConfig cfg = DramConfig::sim_small();
  cfg.t_rh = t_rh;
  return cfg;
}

HammerModelConfig dense_cells() {
  HammerModelConfig h;
  h.p_vulnerable = 0.2;  // plenty of flippable cells for small-row tests
  h.threshold_spread = 0.5;
  h.seed = 99;
  return h;
}

class HammerTest : public ::testing::Test {
 protected:
  HammerTest() : dev_(small_config()), model_(dev_, dense_cells()), attacker_(dev_, sys::Rng(5)) {}

  void fill_row(const RowAddr& r, u8 value) {
    std::vector<u8> data(dev_.config().geo.row_bytes, value);
    dev_.write_row(r, data);
  }

  DramDevice dev_;
  HammerModel model_;
  HammerAttacker attacker_;
};

TEST_F(HammerTest, NoFlipsBelowThreshold) {
  fill_row({0, 0, 10}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 10}, dev_.config().t_rh / 2);
  EXPECT_FALSE(res.any_flip());
  EXPECT_EQ(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, FlipsAppearPastThreshold) {
  fill_row({0, 0, 10}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  EXPECT_TRUE(res.any_flip());
  EXPECT_GT(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, FirstFlipRequiresAtLeastThresholdDisturbance) {
  fill_row({0, 0, 10}, 0xFF);
  // Hammer one ACT at a time; record the count at the first observed flip.
  const RowAddr aggressors[2] = {{0, 0, 9}, {0, 0, 11}};
  u64 acts = 0;
  while (!model_.flips_injected() && acts < 3 * dev_.config().t_rh) {
    attacker_.hammer(aggressors, 2);
    acts += 2;
  }
  ASSERT_GT(model_.flips_injected(), 0u) << "no flip within 3x threshold";
  // Double-sided: each aggressor pair adds 2 disturbances to the victim, so
  // the flip cannot appear before t_rh aggressor ACTs.
  EXPECT_GE(acts, dev_.config().t_rh);
}

TEST_F(HammerTest, DisturbanceConfinedToNeighbors) {
  fill_row({0, 0, 10}, 0xFF);
  fill_row({0, 0, 13}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  // Row 13 is 2+ rows away from both aggressors (9 and 11): untouched.
  EXPECT_EQ(model_.disturbance({0, 0, 13}), 0u);
  for (u8 b : dev_.peek_row({0, 0, 13})) EXPECT_EQ(b, 0xFF);
}

TEST_F(HammerTest, RefreshResetsProgress) {
  fill_row({0, 0, 10}, 0xFF);
  const RowAddr aggressors[2] = {{0, 0, 9}, {0, 0, 11}};
  // Hammer to 90% of threshold, refresh, hammer another 90%: no flip ever.
  const u64 burst = dev_.config().t_rh * 9 / 10;
  attacker_.hammer(aggressors, burst);
  dev_.refresh_all();
  attacker_.hammer(aggressors, burst);
  EXPECT_EQ(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, RewriteRearmsFlippedCells) {
  fill_row({0, 0, 10}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  const u64 first = model_.flips_injected();
  ASSERT_GT(first, 0u);
  // Rewriting the row recharges the cells; the same attack flips them again.
  fill_row({0, 0, 10}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  EXPECT_GT(model_.flips_injected(), first);
}

TEST_F(HammerTest, DirectionalCellsOnlyFlipChargedState) {
  // All-zero row: only anti-cells (0->1) can flip.
  fill_row({0, 0, 20}, 0x00);
  const auto res = attacker_.double_sided({0, 0, 20}, 2 * dev_.config().t_rh);
  for (const auto& f : res.flips) {
    EXPECT_EQ(f.before & (1u << f.bit), 0u) << "flip started from 0";
    EXPECT_NE(f.after & (1u << f.bit), 0u) << "flip went to 1";
  }
}

TEST_F(HammerTest, OnesRowOnlyFlipsToZero) {
  fill_row({0, 0, 30}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 30}, 2 * dev_.config().t_rh);
  ASSERT_TRUE(res.any_flip());
  for (const auto& f : res.flips) {
    EXPECT_NE(f.before & (1u << f.bit), 0u);
    EXPECT_EQ(f.after & (1u << f.bit), 0u);
  }
}

TEST_F(HammerTest, SingleSidedWeakerThanDoubleSided) {
  fill_row({0, 0, 40}, 0xFF);
  // Same ACT budget: single-sided delivers ~half the disturbance.
  const u64 budget = dev_.config().t_rh + dev_.config().t_rh / 2;
  const auto single = attacker_.single_sided({0, 0, 40}, budget);
  fill_row({0, 0, 40}, 0xFF);
  dev_.refresh_all();
  const auto dbl = attacker_.double_sided({0, 0, 40}, budget);
  EXPECT_GE(dbl.flips.size(), single.flips.size());
  EXPECT_TRUE(dbl.any_flip());
  EXPECT_FALSE(single.any_flip());  // budget < 2x threshold
}

TEST_F(HammerTest, SusceptibilityIsDeterministicPerSeed) {
  DramDevice dev2(small_config());
  HammerModel model2(dev2, dense_cells());
  const auto& a = model_.vulnerable_cells({0, 1, 17});
  const auto& b = model2.vulnerable_cells({0, 1, 17});
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].col, b[i].col);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].threshold, b[i].threshold);
    EXPECT_EQ(a[i].one_to_zero, b[i].one_to_zero);
  }
}

TEST_F(HammerTest, SusceptibilityDiffersAcrossSeeds) {
  DramDevice dev2(small_config());
  HammerModelConfig other = dense_cells();
  other.seed = 12345;
  HammerModel model2(dev2, other);
  const auto& a = model_.vulnerable_cells({0, 1, 17});
  const auto& b = model2.vulnerable_cells({0, 1, 17});
  // Same density but different cells.
  bool identical = a.size() == b.size();
  if (identical) {
    for (usize i = 0; i < a.size(); ++i) {
      if (a[i].col != b[i].col || a[i].bit != b[i].bit) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST_F(HammerTest, VulnerableDensityTracksConfig) {
  usize total = 0, rows = 0;
  for (u32 r = 0; r < 32; ++r) {
    total += model_.vulnerable_cells({1, 0, r}).size();
    ++rows;
  }
  const double density = static_cast<double>(total) /
                         (static_cast<double>(rows) * dev_.config().geo.row_bytes * 8);
  EXPECT_NEAR(density, dense_cells().p_vulnerable, 0.05);
}

TEST_F(HammerTest, ThresholdsWithinSpread) {
  const u64 t_rh = dev_.config().t_rh;
  for (const auto& c : model_.vulnerable_cells({0, 2, 5})) {
    EXPECT_GE(c.threshold, t_rh);
    EXPECT_LE(c.threshold,
              t_rh + static_cast<u64>(dense_cells().threshold_spread * t_rh) + 1);
  }
}

TEST_F(HammerTest, CellInfoFindsKnownCells) {
  const auto& cells = model_.vulnerable_cells({0, 3, 7});
  ASSERT_FALSE(cells.empty());
  const auto info = model_.cell_info({0, 3, 7}, cells[0].col, cells[0].bit);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->threshold, cells[0].threshold);
  // A (col,bit) beyond the row is never vulnerable.
  EXPECT_FALSE(model_.cell_info({0, 3, 7}, 0, 0).has_value() &&
               cells.size() == 0);
}

TEST_F(HammerTest, TemplatingDiscoversOracleCells) {
  // Templating with a generous budget must discover exactly the cells whose
  // threshold fits in the budget, with correct directions.
  const u64 budget = 2 * dev_.config().t_rh;  // > max threshold (1.5x)
  const auto found = attacker_.template_rows(1, 1, 10, 13, budget);
  for (const auto& e : found) {
    const auto info = model_.cell_info(e.row, e.col, e.bit);
    ASSERT_TRUE(info.has_value())
        << "templating found a cell the oracle does not know: row=" << e.row.row
        << " col=" << e.col << " bit=" << e.bit;
    EXPECT_EQ(info->one_to_zero, e.one_to_zero);
  }
  // And it must find at least the interior cells of the middle probed row.
  usize oracle_cells = model_.vulnerable_cells({1, 1, 11}).size();
  usize found_mid = 0;
  for (const auto& e : found) found_mid += (e.row.row == 11);
  EXPECT_GE(found_mid, oracle_cells / 2);
}

TEST_F(HammerTest, PostActHookFires) {
  u64 hooks = 0;
  attacker_.set_post_act_hook([&] { ++hooks; });
  const RowAddr aggressors[2] = {{0, 0, 3}, {0, 0, 5}};
  attacker_.hammer(aggressors, 100);
  EXPECT_EQ(hooks, 100u);
}

TEST_F(HammerTest, EmptyAggressorListThrows) {
  EXPECT_THROW(attacker_.hammer({}, 10), std::invalid_argument);
  EXPECT_EQ(dev_.stats().n_act, 0u);
}

TEST_F(HammerTest, HookHorizonLetsQuietRunsSkipTheHook) {
  // Without a horizon the hook runs after every ACT (PostActHookFires); a
  // hook that declares itself always quiet is skipped over bulk runs.
  u64 hooks = 0;
  const RowAddr aggressors[2] = {{0, 0, 3}, {0, 0, 5}};
  attacker_.set_post_act_hook([&] { ++hooks; },
                              [](const dram::ActPattern&, u64 want) { return want; });
  attacker_.hammer(aggressors, 100);
  EXPECT_LT(hooks, 100u);
  EXPECT_EQ(dev_.stats().n_act, 100u);
  EXPECT_EQ(model_.disturbance({0, 0, 4}), 100u);
}

TEST(HammerEdge, TopEdgeVictimFallsBackToLowerAggressor) {
  DramConfig cfg = small_config();
  DramDevice dev(cfg);
  HammerModel model(dev, dense_cells());
  HammerAttacker attacker(dev, sys::Rng(3));
  const u32 last = cfg.geo.rows_per_subarray - 1;
  std::vector<u8> ones(cfg.geo.row_bytes, 0xFF);
  dev.write_row({0, 0, last}, ones);
  // Single-sided alternates aggressor/dummy, so the victim sees one
  // disturbance per two ACTs; 4x T_RH covers the full threshold spread.
  const auto res = attacker.single_sided({0, 0, last}, 4 * cfg.t_rh);
  EXPECT_TRUE(res.any_flip());  // aggressor row last-1 works
}

TEST(HammerEdge, BlastRadiusTwoReachesSecondNeighbor) {
  DramConfig cfg = small_config();
  cfg.blast_radius = 2;
  DramDevice dev(cfg);
  HammerModel model(dev, dense_cells());
  std::vector<u8> ones(cfg.geo.row_bytes, 0xFF);
  dev.write_row({0, 0, 12}, ones);
  // Hammer row 10: victims are 9,11 (d=1) and 8,12 (d=2).
  HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggressors[2] = {{0, 0, 10}, {0, 1, 0}};  // dummy in other subarray
  attacker.hammer(aggressors, 4 * cfg.t_rh);
  EXPECT_GT(model.disturbance({0, 0, 12}), 0u);
}

}  // namespace
}  // namespace dnnd::rowhammer
