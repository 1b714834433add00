#include "rowhammer/attacker.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace dnnd::rowhammer {

using dram::RowAddr;

HammerAttacker::HammerAttacker(dram::DramDevice& device, sys::Rng rng)
    : device_(device), rng_(rng) {}

void HammerAttacker::hammer(std::span<const RowAddr> aggressors, u64 n_acts) {
  if (aggressors.empty()) {
    throw std::invalid_argument("HammerAttacker::hammer: empty aggressor list");
  }
  const usize n = aggressors.size();
  u64 i = 0;
  while (i < n_acts) {
    // One ACT the ordinary way: it carries every event (flip, maintenance,
    // tracker insert) a horizon stops at.
    device_.activate(aggressors[i % n]);
    if (post_act_) post_act_();
    if (++i == n_acts) break;
    const dram::ActPattern p{aggressors, static_cast<usize>(i % n)};
    u64 k = n_acts - i;
    if (post_act_) k = post_act_horizon_ ? std::min(k, post_act_horizon_(p, k)) : 0;
    if (k == 0) continue;
    k = device_.quiet_horizon(p, k);
    device_.activate_quiet(p, k);
    i += k;
  }
}

HammerResult HammerAttacker::run_campaign(const RowAddr& victim,
                                          std::span<const RowAddr> aggressors, u64 max_acts) {
  const std::vector<u8> before(device_.peek_row(victim).begin(), device_.peek_row(victim).end());
  const Picoseconds t0 = device_.now();
  hammer(aggressors, max_acts);
  HammerResult result;
  result.activations = max_acts;
  result.elapsed = device_.now() - t0;
  const auto after = device_.peek_row(victim);
  for (usize col = 0; col < before.size(); ++col) {
    if (before[col] == after[col]) continue;
    const u8 diff = before[col] ^ after[col];
    for (u32 bit = 0; bit < 8; ++bit) {
      if ((diff >> bit) & 1) {
        result.flips.push_back({col, bit, before[col], after[col]});
      }
    }
  }
  return result;
}

HammerResult HammerAttacker::single_sided(const RowAddr& victim, u64 max_acts) {
  const auto& geo = device_.config().geo;
  RowAddr aggressor = victim;
  if (victim.row + 1 < geo.rows_per_subarray) {
    aggressor.row = victim.row + 1;
  } else {
    assert(victim.row > 0);
    aggressor.row = victim.row - 1;
  }
  // The dummy row forces row-buffer misses; pick it in another subarray of
  // the same bank so it does not disturb the victim's subarray.
  RowAddr dummy{victim.bank, (victim.subarray + 1) % geo.subarrays_per_bank,
                static_cast<u32>(rng_.uniform(geo.rows_per_subarray))};
  const std::array<RowAddr, 2> aggressors{aggressor, dummy};
  return run_campaign(victim, aggressors, max_acts);
}

HammerResult HammerAttacker::double_sided(const RowAddr& victim, u64 max_acts) {
  const auto& geo = device_.config().geo;
  if (victim.row == 0 || victim.row + 1 >= geo.rows_per_subarray) {
    return single_sided(victim, max_acts);
  }
  const std::array<RowAddr, 2> aggressors{RowAddr{victim.bank, victim.subarray, victim.row - 1},
                                          RowAddr{victim.bank, victim.subarray, victim.row + 1}};
  return run_campaign(victim, aggressors, max_acts);
}

std::vector<TemplateEntry> HammerAttacker::template_rows(u32 bank, u32 subarray, u32 row_begin,
                                                         u32 row_end, u64 acts_per_pattern) {
  const auto& geo = device_.config().geo;
  assert(row_end <= geo.rows_per_subarray);
  std::vector<TemplateEntry> found;
  std::vector<u8> ones(geo.row_bytes, 0xFF);
  std::vector<u8> zeros(geo.row_bytes, 0x00);
  for (u32 r = row_begin; r < row_end; ++r) {
    const RowAddr victim{bank, subarray, r};
    const std::vector<u8> saved(device_.peek_row(victim).begin(),
                                device_.peek_row(victim).end());
    // Pattern 1: all ones -> discovers true-cells (1->0).
    device_.write_row(victim, ones);
    auto res = double_sided(victim, acts_per_pattern);
    for (const auto& f : res.flips) {
      found.push_back({victim, f.col, f.bit, /*one_to_zero=*/true});
    }
    // Pattern 2: all zeros -> discovers anti-cells (0->1).
    device_.write_row(victim, zeros);
    res = double_sided(victim, acts_per_pattern);
    for (const auto& f : res.flips) {
      found.push_back({victim, f.col, f.bit, /*one_to_zero=*/false});
    }
    device_.write_row(victim, saved);
  }
  return found;
}

}  // namespace dnnd::rowhammer
