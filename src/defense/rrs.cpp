#include "defense/rrs.hpp"

namespace dnnd::defense {

using dram::RowAddr;

Rrs::Rrs(dram::DramDevice& device, dram::RowRemapper& remap, RrsConfig cfg)
    : Mitigation(device, remap), cfg_(cfg), rng_(cfg.seed) {}

u64 Rrs::track(const RowAddr& row) {
  charge_tracker_access();
  const u64 id = flat_row_id(device_.config().geo, row);
  auto it = counts_.find(id);
  if (it != counts_.end()) return ++it->second;
  usize& used = entries_per_bank_[row.bank];
  if (used < cfg_.tracker_entries) {
    ++used;
    counts_[id] = 1;
    return 1;
  }
  // Misra-Gries: decrement all entries of this bank instead of inserting.
  const auto& geo = device_.config().geo;
  for (auto i = counts_.begin(); i != counts_.end();) {
    if (unflatten_row_id(geo, i->first).bank == row.bank && --i->second == 0) {
      i = counts_.erase(i);
      --used;
    } else {
      ++i;
    }
  }
  return 0;
}

void Rrs::on_activate(const RowAddr& row, Picoseconds /*now*/) {
  if (in_maintenance()) return;
  const u64 estimate = track(row);
  const u64 threshold = t_rh_fraction(cfg_.swap_threshold_fraction);
  if (estimate < threshold || threshold == 0) return;
  maintenance([&] { swap_with_random(row); });
}

u64 Rrs::quiet_horizon(const dram::ActPattern& p, u64 want) {
  const auto& geo = device_.config().geo;
  return counter_horizon(p, want, t_rh_fraction(cfg_.swap_threshold_fraction),
                         [&](const RowAddr& row) -> std::optional<u64> {
                           const auto it = counts_.find(flat_row_id(geo, row));
                           if (it == counts_.end()) return std::nullopt;
                           return it->second;
                         });
}

void Rrs::skip_quiet(const dram::ActPattern& p, u64 k) {
  const auto& geo = device_.config().geo;
  charge_tracker_access(k);
  for (usize j = 0; j < p.aggressors.size(); ++j) {
    counts_.at(flat_row_id(geo, p.aggressors[j])) += p.acts_of(j, k);
  }
}

void Rrs::swap_with_random(const RowAddr& hot) {
  const auto& geo = device_.config().geo;
  // Random destination in the same bank (different row).
  RowAddr dest = hot;
  do {
    dest.subarray = static_cast<u32>(rng_.uniform(geo.subarrays_per_bank));
    dest.row = static_cast<u32>(rng_.uniform(geo.rows_per_subarray));
  } while (dest == hot);
  // Controller-mediated swap: both rows cross the channel twice.
  std::vector<u8> a = device_.read_row(hot);
  std::vector<u8> b = device_.read_row(dest);
  device_.write_row(hot, b);
  device_.write_row(dest, a);
  // Extra channel-transfer energy (read_row/write_row charge core energy
  // only; the swap moves 2 rows over the off-chip bus).
  const u64 bursts = 2ull * (geo.row_bytes / 64) * 2ull;
  device_.stats().energy +=
      static_cast<Femtojoules>(bursts) * device_.config().energy.offchip_transfer;
  remap_.swap_logical(remap_.to_logical(hot), remap_.to_logical(dest));
  // Both physical positions were rewritten; their tracker entries reset.
  counts_.erase(flat_row_id(geo, hot));
  counts_.erase(flat_row_id(geo, dest));
  ++swaps_;
  stats_.maintenance_ops += 1;
}

}  // namespace dnnd::defense
