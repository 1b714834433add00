#include "defense/counter_based.hpp"

namespace dnnd::defense {

using dram::RowAddr;

CounterBased::CounterBased(dram::DramDevice& device, dram::RowRemapper& remap,
                           CounterBasedConfig cfg)
    : Mitigation(device, remap), cfg_(std::move(cfg)) {}

void CounterBased::charge_updates(u64 n) {
  if (cfg_.counters_in_dram) {
    // Counter update pays a DRAM access (the Counter-per-Row / tree /
    // Hydra-miss path); modelled as one burst's worth of time and energy.
    const Femtojoules e = static_cast<Femtojoules>(n) * device_.config().energy.rd_burst;
    device_.stats().energy += e;
    stats_.energy_spent += e;
  } else {
    charge_tracker_access(n);
  }
}

u64 CounterBased::track(const RowAddr& row) {
  const auto& geo = device_.config().geo;
  charge_updates(1);
  const u64 id = flat_row_id(geo, row);
  if (exact_counts()) {
    return ++counts_[id];  // exact counting, capacity = all rows
  }
  // Summary trackers: bounded entries per bank, Misra-Gries eviction.
  auto it = counts_.find(id);
  if (it != counts_.end()) return ++it->second;
  usize& used = entries_per_bank_[row.bank];
  if (used < cfg_.table_entries) {
    ++used;
    counts_[id] = 1;
    return 1;
  }
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

void CounterBased::on_activate(const RowAddr& row, Picoseconds /*now*/) {
  if (in_maintenance()) return;
  const u64 count = track(row);
  const u64 threshold = t_rh_fraction(cfg_.refresh_threshold_fraction);
  if (threshold == 0 || count < threshold) return;
  counts_[flat_row_id(device_.config().geo, row)] = 0;
  maintenance([&] { refresh_neighbors(row); });
}

u64 CounterBased::quiet_horizon(const dram::ActPattern& p, u64 want) {
  const auto& geo = device_.config().geo;
  return counter_horizon(p, want, t_rh_fraction(cfg_.refresh_threshold_fraction),
                         [&](const RowAddr& row) -> std::optional<u64> {
                           const auto it = counts_.find(flat_row_id(geo, row));
                           if (it != counts_.end()) return it->second;
                           if (exact_counts()) return 0;
                           return std::nullopt;
                         });
}

void CounterBased::skip_quiet(const dram::ActPattern& p, u64 k) {
  const auto& geo = device_.config().geo;
  charge_updates(k);
  for (usize j = 0; j < p.aggressors.size(); ++j) {
    const u64 acts = p.acts_of(j, k);
    if (acts > 0) counts_[flat_row_id(geo, p.aggressors[j])] += acts;
  }
}

void CounterBased::refresh_neighbors(const RowAddr& hot) {
  const auto& geo = device_.config().geo;
  // An ACT of each victim restores its cells (neighbour-refresh).
  if (hot.row >= 1) {
    device_.activate(RowAddr{hot.bank, hot.subarray, hot.row - 1});
    device_.precharge(hot.bank);
  }
  if (hot.row + 1 < geo.rows_per_subarray) {
    device_.activate(RowAddr{hot.bank, hot.subarray, hot.row + 1});
    device_.precharge(hot.bank);
  }
  ++refreshes_;
  stats_.maintenance_ops += 1;
}

CounterBasedConfig CounterBased::graphene() {
  CounterBasedConfig c;
  c.name = "Graphene";
  c.tracker = TrackerKind::kMisraGries;
  c.refresh_threshold_fraction = 0.25;
  c.table_entries = 256;  // generous CAM+SRAM tables
  return c;
}

CounterBasedConfig CounterBased::twice() {
  CounterBasedConfig c;
  c.name = "TWiCE";
  c.tracker = TrackerKind::kMisraGries;
  c.refresh_threshold_fraction = 0.25;
  c.table_entries = 512;  // larger table, pruned periodically
  return c;
}

CounterBasedConfig CounterBased::hydra() {
  CounterBasedConfig c;
  c.name = "Hydra";
  c.tracker = TrackerKind::kHybrid;
  c.refresh_threshold_fraction = 0.25;
  c.table_entries = 64;        // small SRAM cache
  c.counters_in_dram = true;   // backed by DRAM counter groups
  return c;
}

CounterBasedConfig CounterBased::counter_per_row() {
  CounterBasedConfig c;
  c.name = "CounterPerRow";
  c.tracker = TrackerKind::kPerRow;
  c.refresh_threshold_fraction = 0.25;
  c.counters_in_dram = true;
  return c;
}

CounterBasedConfig CounterBased::counter_tree() {
  CounterBasedConfig c;
  c.name = "CounterTree";
  c.tracker = TrackerKind::kTree;
  c.refresh_threshold_fraction = 0.25;
  c.counters_in_dram = true;
  return c;
}

}  // namespace dnnd::defense
