#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "attack/bfa.hpp"
#include "core/dnn_defender.hpp"
#include "defense/counter_based.hpp"
#include "defense/overhead_model.hpp"
#include "defense/para.hpp"
#include "defense/rrs.hpp"
#include "defense/shadow.hpp"
#include "defense/software_defenses.hpp"
#include "defense/srs.hpp"
#include "rowhammer/attacker.hpp"
#include "test_util.hpp"

namespace dnnd::defense {
namespace {

using dram::DramConfig;
using dram::DramDevice;
using dram::RowAddr;
using dram::RowRemapper;

DramConfig fast_config() {
  DramConfig cfg = DramConfig::sim_small();
  cfg.t_rh = 600;  // keep hammering loops quick
  return cfg;
}

rowhammer::HammerModelConfig dense_cells() {
  rowhammer::HammerModelConfig h;
  h.p_vulnerable = 0.2;
  h.seed = 77;
  return h;
}

/// Hammers the physical neighbourhood of logical row `victim` double-sided
/// while `mitigation` (if any) runs via the post-act hook. The white-box
/// attacker re-resolves the victim's physical location between bursts (it
/// tracks remapping); the verdict is whether the victim's *data* -- wherever
/// it now lives -- lost any bit. A defense that merely relocates intact data
/// does not count as broken.
bool hammer_breaks_row(DramDevice& dev, RowRemapper& remap, defense::Mitigation* mitigation,
                       const RowAddr& victim, u64 acts) {
  rowhammer::HammerAttacker attacker(dev, sys::Rng(5));
  if (mitigation != nullptr) {
    attacker.set_post_act_hook([mitigation] { mitigation->tick(); });
  }
  std::vector<u8> ones(dev.config().geo.row_bytes, 0xFF);
  dev.write_row(remap.to_physical(victim), ones);
  const u64 burst = std::max<u64>(64, dev.config().t_rh / 8);
  for (u64 done = 0; done < acts; done += burst) {
    const RowAddr phys = remap.to_physical(victim);
    if (phys.row == 0 || phys.row + 1 >= dev.config().geo.rows_per_subarray) continue;
    attacker.double_sided(phys, burst);
  }
  const auto data = dev.peek_row(remap.to_physical(victim));
  for (u8 b : data) {
    if (b != 0xFF) return true;
  }
  return false;
}

TEST(Baseline, HammerBreaksUndefendedRow) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, nullptr, {0, 1, 20}, 3 * dev.config().t_rh));
}

// ---------------------------------------------------------------- RRS/SRS --

TEST(Rrs, SwapsHotAggressorAndUpdatesRemap) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  // Directly activate one row past the swap threshold.
  rowhammer::HammerAttacker attacker(dev, sys::Rng(1));
  const RowAddr hot{0, 0, 10};
  const RowAddr other{0, 0, 40};
  const RowAddr aggs[2] = {hot, other};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  EXPECT_GT(rrs.swaps_performed(), 0u);
  EXPECT_GT(rrs.stats().tracker_accesses, 0u);
}

TEST(Rrs, SwapPreservesData) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  const RowAddr hot{0, 0, 10};
  std::vector<u8> payload(dev.config().geo.row_bytes, 0xCD);
  dev.write_row(hot, payload);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(1));
  const RowAddr aggs[2] = {hot, {0, 0, 40}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  ASSERT_GT(rrs.swaps_performed(), 0u);
  // The logical row content is intact wherever it physically lives now.
  const RowAddr phys = remap.to_physical(hot);
  for (u8 b : dev.peek_row(phys)) EXPECT_EQ(b, 0xCD);
}

TEST(Rrs, WhiteBoxVictimFocusedAttackDefeatsIt) {
  // The paper's core argument: RRS swaps aggressors, so an attacker who
  // tracks the victim keeps accumulating disturbance and eventually flips.
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Rrs rrs(dev, remap);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, &rrs, {0, 1, 20}, 4 * dev.config().t_rh))
      << "RRS unexpectedly stopped a physical-adjacency attack";
}

TEST(Srs, IsAnRrsWithSmallerTracker) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Srs srs(dev, remap);
  EXPECT_EQ(srs.name(), "SRS");
  DramDevice dev2(fast_config());
  rowhammer::HammerModel model(dev2, dense_cells());
  RowRemapper remap2(dev2.config().geo);
  Srs srs2(dev2, remap2);
  EXPECT_TRUE(hammer_breaks_row(dev2, remap2, &srs2, {0, 1, 20}, 4 * dev2.config().t_rh));
}

// ----------------------------------------------------------------- SHADOW --

TEST(ShadowDefense, BlocksDoubleSidedHammer) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &shadow, {0, 1, 20}, 4 * dev.config().t_rh))
      << "SHADOW failed to shuffle the victim before threshold";
  EXPECT_GT(shadow.shuffles_performed(), 0u);
}

TEST(ShadowDefense, ShufflePreservesVictimData) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  const RowAddr victim{0, 1, 20};
  std::vector<u8> payload(dev.config().geo.row_bytes, 0xEE);
  dev.write_row(victim, payload);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggs[2] = {{0, 1, 19}, {0, 1, 21}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  ASSERT_GT(shadow.shuffles_performed(), 0u);
  const RowAddr phys = remap.to_physical(victim);
  EXPECT_FALSE(phys == victim) << "victim should have moved";
  for (u8 b : dev.peek_row(phys)) EXPECT_EQ(b, 0xEE);
}

TEST(ShadowDefense, UsesOnlyInDramOps) {
  DramDevice dev(fast_config());
  RowRemapper remap(dev.config().geo);
  Shadow shadow(dev, remap);
  rowhammer::HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggs[2] = {{0, 1, 19}, {0, 1, 21}};
  attacker.hammer(aggs, 2 * dev.config().t_rh);
  EXPECT_EQ(shadow.stats().tracker_accesses, 0u);  // no SRAM
  EXPECT_GT(dev.stats().n_aap, 0u);                // RowClone-based
}

// ---------------------------------------------------------- counter-based --

class CounterPresets : public ::testing::TestWithParam<CounterBasedConfig> {};

TEST_P(CounterPresets, BlocksHammerByNeighborRefresh) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  CounterBased defense(dev, remap, GetParam());
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &defense, {0, 1, 20}, 4 * dev.config().t_rh))
      << GetParam().name << " failed";
  EXPECT_GT(defense.refreshes_issued(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, CounterPresets,
                         ::testing::Values(CounterBased::graphene(), CounterBased::twice(),
                                           CounterBased::hydra(),
                                           CounterBased::counter_per_row(),
                                           CounterBased::counter_tree()),
                         [](const auto& info) { return info.param.name; });

TEST(CounterBasedCosts, SramVsDramTrackers) {
  DramDevice dev1(fast_config());
  RowRemapper r1(dev1.config().geo);
  CounterBased graphene(dev1, r1, CounterBased::graphene());
  DramDevice dev2(fast_config());
  RowRemapper r2(dev2.config().geo);
  CounterBased cpr(dev2, r2, CounterBased::counter_per_row());
  rowhammer::HammerAttacker a1(dev1, sys::Rng(1)), a2(dev2, sys::Rng(1));
  const RowAddr aggs[2] = {{0, 0, 10}, {0, 0, 40}};
  a1.hammer(aggs, 500);
  a2.hammer(aggs, 500);
  EXPECT_GT(graphene.stats().tracker_accesses, 0u);
  EXPECT_EQ(cpr.stats().tracker_accesses, 0u);  // counters in DRAM instead
  EXPECT_GT(cpr.stats().energy_spent, graphene.stats().energy_spent);
}

// -------------------------------------------------------------------- PARA --

TEST(ParaDefense, ProbabilityOneBlocksEverything) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  ParaConfig cfg;
  cfg.refresh_probability = 1.0;
  Para para(dev, remap, cfg);
  EXPECT_FALSE(hammer_breaks_row(dev, remap, &para, {0, 1, 20}, 3 * dev.config().t_rh));
}

TEST(ParaDefense, ProbabilityZeroBlocksNothing) {
  DramDevice dev(fast_config());
  rowhammer::HammerModel model(dev, dense_cells());
  RowRemapper remap(dev.config().geo);
  ParaConfig cfg;
  cfg.refresh_probability = 0.0;
  Para para(dev, remap, cfg);
  EXPECT_TRUE(hammer_breaks_row(dev, remap, &para, {0, 1, 20}, 3 * dev.config().t_rh));
}

// ---------------------------------------------------------- overhead model --

TEST(Overhead, TableCoversAllFrameworks) {
  const auto table = overhead_table(dram::DramConfig::paper_32gb());
  ASSERT_EQ(table.size(), 10u);
  EXPECT_EQ(table.back().framework, "DNN-Defender");
}

TEST(Overhead, OnlyDnnDefenderHasZeroCapacity) {
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    if (e.framework == "DNN-Defender") {
      EXPECT_EQ(e.total_bytes(), 0u);
    } else {
      EXPECT_GT(e.total_bytes(), 0u) << e.framework;
    }
  }
}

TEST(Overhead, CounterPerRowMatchesPaperDerivation) {
  // 32GB / 8KB rows * 8B counters = 32MB (paper Table 2).
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    if (e.framework == "CounterPerRow") {
      EXPECT_EQ(e.dram_bytes, 32ull * 1024 * 1024);
    }
    if (e.framework == "SHADOW") {
      EXPECT_EQ(e.dram_bytes, 20ull * 8192);  // 0.16 MB
    }
  }
}

TEST(Overhead, FastMemoryFlagsMatchPaper) {
  for (const auto& e : overhead_table(dram::DramConfig::paper_32gb())) {
    const bool fast = e.needs_fast_memory();
    if (e.framework == "Graphene" || e.framework == "Hydra" || e.framework == "TWiCE") {
      EXPECT_TRUE(fast) << e.framework;
    }
    if (e.framework == "SHADOW" || e.framework == "P-PIM" ||
        e.framework == "DNN-Defender" || e.framework == "CounterPerRow" ||
        e.framework == "CounterTree") {
      EXPECT_FALSE(fast) << e.framework;
    }
  }
}

// ------------------------------------------------------- software defenses --

TEST(BinaryWeight, FlipNegatesSign) {
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  const bool before = bm.is_positive(0, 5);
  bm.flip(0, 5);
  EXPECT_NE(bm.is_positive(0, 5), before);
  EXPECT_EQ(bm.total_bits(), model->weight_count());
}

TEST(BinaryWeight, MaterializedWeightsAreBinary) {
  auto model = testutil::trained_mlp();
  software::BinaryWeightModel bm(*model);
  for (auto& p : model->quantizable_params()) {
    for (usize i = 0; i < p.value->size(); i += 5) {
      const float v = std::fabs((*p.value)[i]);
      bool matches = false;
      for (usize l = 0; l < bm.num_layers(); ++l) {
        if (std::fabs(v - bm.alpha(l)) < 1e-6) matches = true;
      }
      EXPECT_TRUE(matches);
    }
  }
}

TEST(BinaryWeight, PerFlipDamageIsBounded) {
  // The binary-weight defense argument (Table 3): a sign flip moves a weight
  // by exactly 2*alpha (alpha = mean|w|), while an 8-bit MSB flip moves it by
  // 128 quantization steps ~ max|w| -- several times larger. Bounded per-flip
  // damage is what forces the attacker to spend more flips.
  auto m8 = testutil::trained_mlp();
  quant::QuantizedModel qm(*m8);
  auto mb = testutil::trained_mlp();
  software::BinaryWeightModel bm(*mb);
  for (usize l = 0; l < bm.num_layers(); ++l) {
    const double binary_step = 2.0 * bm.alpha(l);
    const double msb_step = 128.0 * qm.layer(l).scale;
    EXPECT_LT(binary_step, msb_step * 0.75)
        << "layer " << l << ": binary flips must be gentler than MSB flips";
  }
  // And the flip really moves the weight by exactly 2*alpha.
  const float before = (*bm.model().quantizable_params()[0].value)[3];
  bm.flip(0, 3);
  const float after = (*bm.model().quantizable_params()[0].value)[3];
  EXPECT_NEAR(std::fabs(after - before), 2.0 * bm.alpha(0), 1e-6);
}

TEST(BinaryWeight, SteFinetuneRecoversAccuracy) {
  // Naive post-hoc binarization of a conv/dense net collapses it; the STE
  // fine-tune must bring it back to a useful level.
  auto model = testutil::trained_mlp();
  const double acc = software::binary_finetune(*model, testutil::easy_data(),
                                               /*epochs=*/3, /*lr=*/0.02, 5);
  EXPECT_GT(acc, 0.6);
  // Deployed weights are exactly binary per layer.
  for (auto& p : model->quantizable_params()) {
    const float mag = std::fabs((*p.value)[0]);
    for (usize i = 0; i < p.value->size(); i += 7) {
      EXPECT_NEAR(std::fabs((*p.value)[i]), mag, 1e-6);
    }
  }
}

TEST(PiecewiseClustering, KeepsAccuracyReasonable) {
  auto model = testutil::trained_mlp();
  const double before = nn::evaluate(*model, testutil::easy_data().test);
  const double after = software::piecewise_clustering_finetune(
      *model, testutil::easy_data(), /*lambda=*/0.01, /*epochs=*/2, /*lr=*/0.01, 3);
  EXPECT_GT(after, before - 0.1);
}

TEST(PiecewiseClustering, PullsWeightsTowardTwoClusters) {
  auto model = testutil::trained_mlp();
  software::piecewise_clustering_finetune(*model, testutil::easy_data(), /*lambda=*/0.3,
                                          /*epochs=*/4, /*lr=*/0.01, 3);
  // Weight magnitudes should concentrate: the ratio max|w| / mean|w| shrinks
  // toward 1 as weights move to +-mu.
  for (auto& p : model->quantizable_params()) {
    double mean = 0.0;
    for (usize i = 0; i < p.value->size(); ++i) mean += std::fabs((*p.value)[i]);
    mean /= static_cast<double>(p.value->size());
    EXPECT_LT(p.value->abs_max() / mean, 4.0);
  }
}

TEST(Reconstruction, ClampsMsbFlippedWeight) {
  auto model = testutil::trained_mlp();
  quant::QuantizedModel qm(*model);
  software::ReconstructionGuard guard(qm, 0.999);
  // Flip the sign bit of a small positive code: it becomes very negative.
  usize idx = 0;
  for (usize i = 0; i < qm.layer(0).size(); ++i) {
    if (qm.get_q(0, i) >= 0 && qm.get_q(0, i) < 32) {
      idx = i;
      break;
    }
  }
  qm.flip({0, idx, 7});
  ASSERT_LT(qm.get_q(0, idx), -64);
  const usize corrected = guard.apply(qm);
  EXPECT_GE(corrected, 1u);
  EXPECT_GE(qm.get_q(0, idx), -static_cast<i32>(guard.bound(0)));
}

TEST(Reconstruction, RepairsAttackDamage) {
  auto model = testutil::trained_mlp();
  quant::QuantizedModel qm(*model);
  software::ReconstructionGuard guard(qm);
  auto [ax, ay] = testutil::easy_data().test.head(32);
  attack::BfaConfig cfg;
  cfg.max_flips = 10;
  attack::ProgressiveBitSearch bfa(qm, ax, ay, cfg);
  bfa.run();
  const double attacked_acc = qm.model().accuracy(ax, ay);
  const double attacked_loss = qm.model().loss(ax, ay);
  const usize corrected = guard.apply(qm);
  // The attack's damage comes from out-of-distribution weight magnitudes;
  // the guard must find and shrink some of them, and the (sensitive) loss
  // must improve. Accuracy is quantised over 32 samples, so it may tie.
  EXPECT_GT(corrected, 0u);
  EXPECT_LT(qm.model().loss(ax, ay), attacked_loss);
  EXPECT_GE(qm.model().accuracy(ax, ay), attacked_acc);
}

// --------------------------------------------- bulk hammering == per-ACT --
//
// HammerAttacker::hammer applies quiet runs of ACTs in bulk. Each case runs
// two twin systems: one hammers through HammerAttacker (bulk path), the
// other through a test-local loop of device.activate + tick, one ACT at a
// time. Every observable piece of state must match after every chunk.

enum class Defense {
  kNone, kPara, kRrs, kSrs, kShadow, kGraphene, kTwice, kHydra, kPerRow, kTree, kDnnDefender,
};

const char* defense_name(Defense d) {
  switch (d) {
    case Defense::kNone: return "none";
    case Defense::kPara: return "para";
    case Defense::kRrs: return "rrs";
    case Defense::kSrs: return "srs";
    case Defense::kShadow: return "shadow";
    case Defense::kGraphene: return "graphene";
    case Defense::kTwice: return "twice";
    case Defense::kHydra: return "hydra";
    case Defense::kPerRow: return "per_row";
    case Defense::kTree: return "tree";
    case Defense::kDnnDefender: return "dnn_defender";
  }
  return "?";
}

const RowAddr kVictim{0, 1, 20};

/// Counts the ACTs the device applied in bulk; never limits a horizon.
struct BulkCounter : dram::RowEventListener {
  void on_activate(const RowAddr&, Picoseconds) override {}
  void on_restore(const RowAddr&, Picoseconds, dram::RestoreKind) override {}
  u64 quiet_horizon(const dram::ActPattern&, u64 want) override { return want; }
  void skip_quiet(const dram::ActPattern&, u64 k) override { skipped += k; }
  u64 skipped = 0;
};

/// A complete system: device, fault model, then the defense (the listener
/// order ProtectedSystem uses), with seeded data in every row.
struct Rig {
  Rig(Defense kind, u32 t_rh, u32 blast_radius, u64 seed)
      : dev(make_config(t_rh, blast_radius)), remap(dev.config().geo), model(dev, cells(seed)) {
    switch (kind) {
      case Defense::kNone: break;
      case Defense::kPara: mitigation = std::make_unique<Para>(dev, remap, ParaConfig{0.02, seed}); break;
      case Defense::kRrs: mitigation = std::make_unique<Rrs>(dev, remap, RrsConfig{0.5, 64, seed}); break;
      case Defense::kSrs: mitigation = std::make_unique<Srs>(dev, remap, SrsConfig{0.6, 2, seed}); break;
      case Defense::kShadow: mitigation = std::make_unique<Shadow>(dev, remap, ShadowConfig{0.2, seed}); break;
      case Defense::kGraphene: counter(CounterBased::graphene()); break;
      case Defense::kTwice: counter(CounterBased::twice()); break;
      case Defense::kHydra: counter(CounterBased::hydra()); break;
      case Defense::kPerRow: counter(CounterBased::counter_per_row()); break;
      case Defense::kTree: counter(CounterBased::counter_tree()); break;
      case Defense::kDnnDefender: {
        auto dd = std::make_unique<core::DnnDefender>(dev, remap, core::DnnDefenderConfig{.seed = seed});
        dd->set_protected_rows({kVictim, {0, 1, 40}, {0, 2, 10}}, {{0, 1, 30}, {0, 1, 50}});
        mitigation = std::move(dd);
        break;
      }
    }
    dev.add_listener(&bulk);
    sys::Rng data_rng(seed ^ 0xDA7AULL);
    const auto& geo = dev.config().geo;
    std::vector<u8> row(geo.row_bytes);
    for (u64 id = 0; id < geo.total_rows(); ++id) {
      for (u8& b : row) b = static_cast<u8>(data_rng.uniform(256));
      dev.poke_row(dram::unflatten_row_id(geo, id), row);
    }
  }

  static DramConfig make_config(u32 t_rh, u32 blast_radius) {
    DramConfig cfg = DramConfig::sim_small();
    cfg.t_rh = t_rh;
    cfg.blast_radius = blast_radius;
    return cfg;
  }
  static rowhammer::HammerModelConfig cells(u64 seed) {
    rowhammer::HammerModelConfig h = dense_cells();
    h.seed = seed;
    return h;
  }
  void counter(CounterBasedConfig c) {
    mitigation = std::make_unique<CounterBased>(dev, remap, std::move(c));
  }
  void tick() {
    if (mitigation) mitigation->tick();
  }
  /// The attacker's aggressors around the victim's current frame: the
  /// DeepHammer chunk loop, single-sided against a dummy row at the edges.
  std::vector<RowAddr> aggressors(bool double_sided) const {
    const auto& geo = dev.config().geo;
    const RowAddr v = remap.to_physical(kVictim);
    const RowAddr dummy{v.bank, (v.subarray + 1) % geo.subarrays_per_bank, 7};
    if (v.row == 0) return {{v.bank, v.subarray, 1}, dummy};
    const RowAddr below{v.bank, v.subarray, v.row - 1};
    if (v.row + 1 == geo.rows_per_subarray) return {below, dummy};
    const RowAddr above{v.bank, v.subarray, v.row + 1};
    if (double_sided) return {below, above};
    return {above, dummy};
  }
  /// The reference: one activate + tick per ACT, no horizon asked.
  void hammer_per_act(std::span<const RowAddr> aggs, u64 n) {
    for (u64 i = 0; i < n; ++i) {
      dev.activate(aggs[i % aggs.size()]);
      tick();
    }
  }

  DramDevice dev;
  RowRemapper remap;
  rowhammer::HammerModel model;
  std::unique_ptr<Mitigation> mitigation;
  BulkCounter bulk;
};

/// Binds a HammerAttacker to `rig` with the hook ProtectedSystem installs.
rowhammer::HammerAttacker bulk_attacker(Rig& rig) {
  rowhammer::HammerAttacker attacker(rig.dev, sys::Rng(5));
  if (Mitigation* m = rig.mitigation.get()) {
    attacker.set_post_act_hook(
        [m] { m->tick(); },
        [m](const dram::ActPattern& p, u64 want) { return m->quiet_horizon(p, want); });
  }
  return attacker;
}

::testing::AssertionResult same_state(const Rig& a, const Rig& b) {
  const auto& geo = a.dev.config().geo;
  const dram::Stats& sa = a.dev.stats();
  const dram::Stats& sb = b.dev.stats();
  if (sa.summary() != sb.summary() || sa.n_act != sb.n_act || sa.n_pre != sb.n_pre ||
      sa.n_rd_burst != sb.n_rd_burst || sa.n_wr_burst != sb.n_wr_burst ||
      sa.n_aap != sb.n_aap || sa.n_psm_copy != sb.n_psm_copy ||
      sa.n_bitflips != sb.n_bitflips || sa.busy_time != sb.busy_time ||
      sa.energy != sb.energy || a.dev.now() != b.dev.now()) {
    return ::testing::AssertionFailure() << "Stats: " << sa.summary() << " vs " << sb.summary()
                                         << ", now " << a.dev.now() << " vs " << b.dev.now();
  }
  if (a.mitigation) {
    const DefenseStats& da = a.mitigation->stats();
    const DefenseStats& db = b.mitigation->stats();
    if (da.maintenance_ops != db.maintenance_ops || da.tracker_accesses != db.tracker_accesses ||
        da.time_spent != db.time_spent || da.energy_spent != db.energy_spent) {
      return ::testing::AssertionFailure()
             << "DefenseStats: ops " << da.maintenance_ops << " vs " << db.maintenance_ops
             << ", tracker " << da.tracker_accesses << " vs " << db.tracker_accesses
             << ", energy " << da.energy_spent << " vs " << db.energy_spent;
    }
  }
  if (a.model.flips_injected() != b.model.flips_injected()) {
    return ::testing::AssertionFailure() << "flips_injected " << a.model.flips_injected()
                                         << " vs " << b.model.flips_injected();
  }
  for (u32 bank = 0; bank < geo.banks; ++bank) {
    if (a.dev.open_row(bank) != b.dev.open_row(bank)) {
      return ::testing::AssertionFailure() << "open row of bank " << bank;
    }
  }
  for (u64 id = 0; id < geo.total_rows(); ++id) {
    const RowAddr r = dram::unflatten_row_id(geo, id);
    if (!std::ranges::equal(a.dev.peek_row(r), b.dev.peek_row(r))) {
      return ::testing::AssertionFailure() << "bytes of row " << id;
    }
    if (a.model.disturbance(r) != b.model.disturbance(r)) {
      return ::testing::AssertionFailure() << "disturbance of row " << id << ": "
                                           << a.model.disturbance(r) << " vs "
                                           << b.model.disturbance(r);
    }
    if (!(a.remap.to_physical(r) == b.remap.to_physical(r))) {
      return ::testing::AssertionFailure() << "mapping of logical row " << id;
    }
  }
  return ::testing::AssertionSuccess();
}

struct BulkCase {
  Defense defense;
  u32 t_rh;
  u32 blast_radius;
  u64 seed;
  bool double_sided;
};

class BulkHammer : public ::testing::TestWithParam<BulkCase> {};

TEST_P(BulkHammer, MatchesPerActReference) {
  const BulkCase c = GetParam();
  Rig bulk(c.defense, c.t_rh, c.blast_radius, c.seed);
  Rig ref(c.defense, c.t_rh, c.blast_radius, c.seed);
  rowhammer::HammerAttacker attacker = bulk_attacker(bulk);
  const u64 total = 3 * static_cast<u64>(c.t_rh) + 100;
  for (u64 done = 0; done < total; done += 256) {
    const u64 chunk = std::min<u64>(256, total - done);
    const auto aggs = bulk.aggressors(c.double_sided);
    ASSERT_EQ(aggs, ref.aggressors(c.double_sided));
    attacker.hammer(aggs, chunk);
    ref.hammer_per_act(aggs, chunk);
    ASSERT_TRUE(same_state(bulk, ref)) << "after " << done + chunk << " ACTs";
  }
  EXPECT_GT(bulk.bulk.skipped, 0u) << "the bulk path never ran";
  EXPECT_EQ(ref.bulk.skipped, 0u);
  // The defenses' random streams (PARA's pre-drawn outcomes, the swap
  // destinations of RRS/SRS/SHADOW/DNN-Defender) must continue identically:
  // hammer on per-ACT on both twins until more events have used them.
  for (u64 done = 0; done < 2 * static_cast<u64>(c.t_rh); done += 256) {
    const auto aggs = bulk.aggressors(c.double_sided);
    bulk.hammer_per_act(aggs, 256);
    ref.hammer_per_act(aggs, 256);
  }
  EXPECT_TRUE(same_state(bulk, ref)) << "after the per-ACT continuation";
}

std::vector<BulkCase> bulk_cases() {
  std::vector<BulkCase> cases;
  for (int d = 0; d <= static_cast<int>(Defense::kDnnDefender); ++d) {
    for (const auto& [t_rh, radius] : {std::pair<u32, u32>{300, 2}, {1000, 1}}) {
      for (u64 seed : {1, 2, 3}) {
        for (bool double_sided : {true, false}) {
          cases.push_back({static_cast<Defense>(d), t_rh, radius, seed, double_sided});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, BulkHammer, ::testing::ValuesIn(bulk_cases()),
                         [](const auto& info) {
                           const BulkCase& c = info.param;
                           return std::string(defense_name(c.defense)) + "_trh" +
                                  std::to_string(c.t_rh) + "_r" + std::to_string(c.blast_radius) +
                                  "_s" + std::to_string(c.seed) +
                                  (c.double_sided ? "_double" : "_single");
                         });

TEST(BulkHammerEdge, StopsExactlyAtTheFirstCellThreshold) {
  // The victim's lowest-threshold cell T is charged, so it flips on the ACT
  // that deposits disturbance T and not one ACT earlier. Runs ending just
  // before, on and after that ACT, split into two hammer calls at several
  // points, must all match the per-ACT reference. (Each call restarts the
  // round robin, so an odd split repeats the open row once: a no-op ACT.)
  Rig probe(Defense::kNone, 1000, 1, 7);
  const auto& cells = probe.model.vulnerable_cells(kVictim);
  ASSERT_FALSE(cells.empty());
  const rowhammer::VulnerableCell first = cells.front();
  const u64 t = first.threshold;
  ASSERT_GT(t, 4u);
  std::vector<u8> charged(probe.dev.config().geo.row_bytes, first.one_to_zero ? 0xFF : 0x00);
  const std::vector<RowAddr> aggs{{0, 1, 19}, {0, 1, 21}};
  for (u64 n : {t - 2, t - 1, t, t + 1, t + 2}) {
    for (u64 split : {u64{0}, u64{1}, u64{2}, t / 2, t - 3}) {
      Rig bulk(Defense::kNone, 1000, 1, 7);
      Rig ref(Defense::kNone, 1000, 1, 7);
      bulk.dev.poke_row(kVictim, charged);
      ref.dev.poke_row(kVictim, charged);
      rowhammer::HammerAttacker attacker = bulk_attacker(bulk);
      attacker.hammer(aggs, split);
      attacker.hammer(aggs, n - split);
      ref.hammer_per_act(aggs, split);
      ref.hammer_per_act(aggs, n - split);
      ASSERT_TRUE(same_state(bulk, ref)) << n << " ACTs split at " << split;
      const u64 disturbance = bulk.model.disturbance(kVictim);
      EXPECT_EQ(disturbance, split % 2 == 1 ? n - 1 : n);
      EXPECT_EQ(bulk.model.flips_injected() > 0, disturbance >= t)
          << n << " ACTs split at " << split;
      EXPECT_GT(bulk.bulk.skipped, 0u);
    }
  }
}

TEST(BulkHammerEdge, AggressorOneBumpFromItsThresholdStopsTheRun) {
  // The victim itself turns aggressor one disturbance short of its first
  // cell's threshold T. In the pattern {far, above, victim} the ACT of
  // `above` deposits disturbance T on it before its own ACT restores it, so
  // no run may cover that ACT.
  Rig probe(Defense::kNone, 1000, 1, 7);
  const rowhammer::VulnerableCell first = probe.model.vulnerable_cells(kVictim).front();
  const u64 t = first.threshold;
  std::vector<u8> charged(probe.dev.config().geo.row_bytes, first.one_to_zero ? 0xFF : 0x00);
  const std::vector<RowAddr> around{{0, 1, 19}, {0, 1, 21}};
  const std::vector<RowAddr> turned{{0, 2, 7}, {0, 1, 21}, kVictim};
  for (u64 n = 1; n <= 7; ++n) {
    Rig bulk(Defense::kNone, 1000, 1, 7);
    Rig ref(Defense::kNone, 1000, 1, 7);
    bulk.dev.poke_row(kVictim, charged);
    ref.dev.poke_row(kVictim, charged);
    rowhammer::HammerAttacker attacker = bulk_attacker(bulk);
    attacker.hammer(around, t - 1);
    ref.hammer_per_act(around, t - 1);
    ASSERT_EQ(bulk.model.disturbance(kVictim), t - 1);
    attacker.hammer(turned, n);
    ref.hammer_per_act(turned, n);
    ASSERT_TRUE(same_state(bulk, ref)) << n << " ACTs of the turned pattern";
    EXPECT_EQ(bulk.model.flips_injected() > 0, n >= 2) << n;
  }
}

}  // namespace
}  // namespace dnnd::defense
