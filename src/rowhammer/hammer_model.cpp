#include "rowhammer/hammer_model.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace dnnd::rowhammer {

using dram::RowAddr;

HammerModel::HammerModel(dram::DramDevice& device, HammerModelConfig cfg)
    : device_(device), cfg_(cfg) {
  device_.add_listener(this);
}

HammerModel::~HammerModel() { device_.remove_listener(this); }

HammerModel::RowState& HammerModel::state_for(u64 flat_id, const RowAddr& row) {
  auto it = rows_.find(flat_id);
  if (it == rows_.end()) it = rows_.emplace(flat_id, RowState{}).first;
  RowState& st = it->second;
  if (!st.cells_built) {
    build_cells(st, row);
    st.cells_built = true;
  }
  return st;
}

void HammerModel::build_cells(RowState& st, const RowAddr& row) const {
  const auto& geo = device_.config().geo;
  const u64 rid = flat_row_id(geo, row);
  const u64 t_rh = device_.config().t_rh;
  for (usize col = 0; col < geo.row_bytes; ++col) {
    for (u32 bit = 0; bit < 8; ++bit) {
      const u64 h = sys::hash_combine(cfg_.seed, rid, col, bit);
      if (sys::hash_to_unit(h) >= cfg_.p_vulnerable) continue;
      VulnerableCell cell;
      cell.col = col;
      cell.bit = bit;
      // A second, independent hash decides the personal threshold and the
      // flip direction so they are uncorrelated with the selection draw.
      const u64 h2 = sys::hash_combine(h, 0x7e57ab1eULL);
      cell.threshold =
          t_rh + static_cast<u64>(sys::hash_to_unit(h2) * cfg_.threshold_spread *
                                  static_cast<double>(t_rh));
      cell.one_to_zero = (h2 & 1) != 0;
      st.cells.push_back(cell);
    }
  }
  std::sort(st.cells.begin(), st.cells.end(),
            [](const VulnerableCell& a, const VulnerableCell& b) {
              return a.threshold < b.threshold;
            });
  st.discharged.assign(st.cells.size(), false);
}

void HammerModel::bump_and_maybe_flip(const RowAddr& victim) {
  const auto& geo = device_.config().geo;
  RowState& st = state_for(flat_row_id(geo, victim), victim);
  st.disturbance += 1;
  while (st.next_candidate < st.cells.size() &&
         st.cells[st.next_candidate].threshold <= st.disturbance) {
    const usize i = st.next_candidate++;
    if (st.discharged[i]) continue;
    const VulnerableCell& cell = st.cells[i];
    const u8 value = device_.peek(victim, cell.col);
    const bool bit_set = (value >> cell.bit) & 1;
    if (cfg_.directional) {
      // A cell only leaks toward its discharged state.
      if (cell.one_to_zero && !bit_set) continue;
      if (!cell.one_to_zero && bit_set) continue;
    }
    device_.force_flip_bit(victim, cell.col, cell.bit);
    st.discharged[i] = true;
    flips_injected_ += 1;
  }
}

void HammerModel::on_activate(const RowAddr& row, Picoseconds /*now*/) {
  const auto& cfg = device_.config();
  // Disturb neighbours within the blast radius, confined to the subarray
  // (sense-amplifier stripes isolate disturbance across subarray boundaries).
  for (u32 d = 1; d <= cfg.blast_radius; ++d) {
    if (row.row >= d) {
      bump_and_maybe_flip(RowAddr{row.bank, row.subarray, row.row - d});
    }
    if (row.row + d < cfg.geo.rows_per_subarray) {
      bump_and_maybe_flip(RowAddr{row.bank, row.subarray, row.row + d});
    }
  }
}

void HammerModel::on_restore(const RowAddr& row, Picoseconds /*now*/, dram::RestoreKind kind) {
  const auto it = rows_.find(flat_row_id(device_.config().geo, row));
  if (it == rows_.end()) return;
  RowState& st = it->second;
  st.disturbance = 0;
  st.next_candidate = 0;
  if (kind == dram::RestoreKind::kRewrite) {
    // Fresh data recharges every cell; previously-flipped cells can flip again.
    std::fill(st.discharged.begin(), st.discharged.end(), false);
  }
}

const std::vector<HammerModel::Touched>& HammerModel::touched_by(
    std::span<const RowAddr> aggressors) {
  if (std::equal(aggressors.begin(), aggressors.end(), touched_key_.begin(),
                 touched_key_.end())) {
    return touched_;
  }
  touched_key_.assign(aggressors.begin(), aggressors.end());
  touched_.clear();
  if (aggressors.size() > 64) return touched_;
  const auto& cfg = device_.config();
  std::vector<u64> ids;
  // Building a row's state early is invisible: a fresh state holds the
  // same zero disturbance a missing one reports.
  auto touch = [&](const RowAddr& row) -> Touched& {
    const u64 id = flat_row_id(cfg.geo, row);
    const auto at = std::find(ids.begin(), ids.end(), id);
    if (at != ids.end()) return touched_[static_cast<usize>(at - ids.begin())];
    ids.push_back(id);
    return touched_.emplace_back(Touched{&state_for(id, row), 0, -1});
  };
  for (usize j = 0; j < aggressors.size(); ++j) {
    const RowAddr& a = aggressors[j];
    touch(a).self = static_cast<int>(j);
    for (u32 d = 1; d <= cfg.blast_radius; ++d) {
      if (a.row >= d) touch(RowAddr{a.bank, a.subarray, a.row - d}).bumped_by |= 1ULL << j;
      if (a.row + d < cfg.geo.rows_per_subarray) {
        touch(RowAddr{a.bank, a.subarray, a.row + d}).bumped_by |= 1ULL << j;
      }
    }
  }
  return touched_;
}

namespace {
constexpr u64 kNever = std::numeric_limits<u64>::max();

/// Disturbances the next `k` ACTs of `p` deposit on a row bumped by `mask`.
u64 bumps(const dram::ActPattern& p, u64 mask, u64 k) {
  u64 total = 0;
  for (u64 m = mask; m != 0; m &= m - 1) {
    total += p.acts_of(static_cast<usize>(std::countr_zero(m)), k);
  }
  return total;
}
}  // namespace

u64 HammerModel::quiet_horizon(const dram::ActPattern& p, u64 want) {
  const auto& touched = touched_by(p.aggressors);
  if (touched.empty()) return 0;
  const usize n = p.aggressors.size();
  u64 k = want;
  for (const Touched& t : touched) {
    if (t.bumped_by == 0) continue;  // only ever restored
    const RowState& st = *t.state;
    const u64 m = static_cast<u64>(std::popcount(t.bumped_by));
    const u64 next = st.next_candidate < st.cells.size()
                         ? st.cells[st.next_candidate].threshold
                         : kNever;
    if (t.self >= 0) {
      // Each of its own ACTs restores an aggressor, so it never holds more
      // than one cycle's m disturbances beyond what it holds now.
      const u64 first = st.cells.empty() ? kNever : st.cells.front().threshold;
      if (st.disturbance + m >= next || m >= first) return 0;
      continue;
    }
    if (next == kNever) continue;
    if (next <= st.disturbance) return 0;
    // The ACT that deposits disturbance number `next` is the first event:
    // whole cycles of m bumps, then a walk through the partial cycle.
    const u64 budget = next - 1 - st.disturbance;
    u64 left = budget % m;
    u64 step = 0;
    for (;; ++step) {
      if (((t.bumped_by >> ((p.phase + step) % n)) & 1) == 0) continue;
      if (left == 0) break;
      --left;
    }
    k = std::min(k, budget / m * n + step);
  }
  return k;
}

void HammerModel::skip_quiet(const dram::ActPattern& p, u64 k) {
  for (const Touched& t : touched_by(p.aggressors)) {
    RowState& st = *t.state;
    const u64 own = t.self >= 0 ? p.acts_of(static_cast<usize>(t.self), k) : 0;
    if (own == 0) {
      st.disturbance += bumps(p, t.bumped_by, k);
      continue;
    }
    // Restored by its last ACT of the run; only the bumps after it remain.
    const u64 last = p.max_acts_with(static_cast<usize>(t.self), own - 1);
    st.disturbance = bumps(p, t.bumped_by, k) - bumps(p, t.bumped_by, last + 1);
    st.next_candidate = 0;
  }
}

u64 HammerModel::disturbance(const RowAddr& row) const {
  const auto it = rows_.find(flat_row_id(device_.config().geo, row));
  return it == rows_.end() ? 0 : it->second.disturbance;
}

const std::vector<VulnerableCell>& HammerModel::vulnerable_cells(const RowAddr& row) {
  return state_for(flat_row_id(device_.config().geo, row), row).cells;
}

std::optional<VulnerableCell> HammerModel::cell_info(const RowAddr& row, usize col, u32 bit) {
  for (const auto& c : vulnerable_cells(row)) {
    if (c.col == col && c.bit == bit) return c;
  }
  return std::nullopt;
}

}  // namespace dnnd::rowhammer
