#include "defense/shadow.hpp"

namespace dnnd::defense {

using dram::RowAddr;

Shadow::Shadow(dram::DramDevice& device, dram::RowRemapper& remap, ShadowConfig cfg)
    : Mitigation(device, remap), cfg_(cfg), rng_(cfg.seed) {}

u32 Shadow::reserved_row() const { return device_.config().geo.rows_per_subarray - 1; }

void Shadow::on_activate(const RowAddr& row, Picoseconds /*now*/) {
  if (in_maintenance()) return;
  // SHADOW keeps its activation metadata inside DRAM (no SRAM cost).
  const u64 id = flat_row_id(device_.config().geo, row);
  const u64 count = ++act_counts_[id];
  const u64 threshold = t_rh_fraction(cfg_.shuffle_threshold_fraction);
  if (count < threshold || threshold == 0) return;
  act_counts_[id] = 0;
  maintenance([&] {
    const auto& geo = device_.config().geo;
    if (row.row >= 1) shuffle_victim(RowAddr{row.bank, row.subarray, row.row - 1});
    if (row.row + 1 < geo.rows_per_subarray - 1) {  // reserved row is the last
      shuffle_victim(RowAddr{row.bank, row.subarray, row.row + 1});
    }
  });
}

u64 Shadow::quiet_horizon(const dram::ActPattern& p, u64 want) {
  const auto& geo = device_.config().geo;
  return counter_horizon(p, want, t_rh_fraction(cfg_.shuffle_threshold_fraction),
                         [&](const RowAddr& row) -> std::optional<u64> {
                           const auto it = act_counts_.find(flat_row_id(geo, row));
                           return it == act_counts_.end() ? 0 : it->second;
                         });
}

void Shadow::skip_quiet(const dram::ActPattern& p, u64 k) {
  const auto& geo = device_.config().geo;
  for (usize j = 0; j < p.aggressors.size(); ++j) {
    const u64 acts = p.acts_of(j, k);
    if (acts > 0) act_counts_[flat_row_id(geo, p.aggressors[j])] += acts;
  }
}

void Shadow::shuffle_victim(const RowAddr& v) {
  const auto& geo = device_.config().geo;
  const u32 res = reserved_row();
  if (v.row == res) return;
  // Random destination: any non-reserved row of the subarray except v.
  u32 dest;
  do {
    dest = static_cast<u32>(rng_.uniform(res));
  } while (dest == v.row);
  const RowAddr d{v.bank, v.subarray, dest};
  // Three in-subarray copies through the reserved row.
  device_.rowclone_fpm(v.bank, v.subarray, v.row, res);   // victim -> reserved
  device_.rowclone_fpm(v.bank, v.subarray, d.row, v.row); // displaced -> victim slot
  device_.rowclone_fpm(v.bank, v.subarray, res, d.row);   // reserved -> displaced slot
  remap_.swap_logical(remap_.to_logical(v), remap_.to_logical(d));
  // Both physical slots now hold rewritten data; their counters restart.
  act_counts_.erase(flat_row_id(geo, v));
  act_counts_.erase(flat_row_id(geo, d));
  ++shuffles_;
  stats_.maintenance_ops += 1;
}

}  // namespace dnnd::defense
