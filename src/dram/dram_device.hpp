// Transaction-level DRAM device: banks -> subarrays -> rows of bytes, with a
// per-bank row buffer, command-accurate timing/energy accounting, RowClone
// FPM/PSM in-DRAM copy, distributed refresh, and activation/restore hooks
// that the RowHammer fault model and the mitigations subscribe to.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dram/dram_config.hpp"
#include "dram/stats.hpp"

namespace dnnd::dram {

/// How a row's charge was restored.
enum class RestoreKind {
  kRefresh,  ///< cells re-amplified to their *current* value (ACT restore, REF)
  kRewrite,  ///< new data driven into the cells (write, RowClone destination)
};

/// A round-robin hammer pattern, seen from the next ACT: that ACT opens
/// `aggressors[phase]`, the one after `aggressors[(phase + 1) % size]`, and
/// so on. DramDevice::quiet_horizon only accepts distinct aggressors of one
/// bank, so every ACT of the pattern is a PRE+ACT pair.
struct ActPattern {
  std::span<const RowAddr> aggressors;
  usize phase = 0;  ///< < aggressors.size()

  /// ACTs of aggressors[j] among the next `k` ACTs.
  [[nodiscard]] u64 acts_of(usize j, u64 k) const {
    const u64 first = offset_of(j);
    return k > first ? (k - first - 1) / aggressors.size() + 1 : 0;
  }
  /// Largest k for which the next k ACTs open aggressors[j] at most `budget`
  /// times.
  [[nodiscard]] u64 max_acts_with(usize j, u64 budget) const {
    return offset_of(j) + budget * aggressors.size();
  }

 private:
  /// How many ACTs come before the next ACT of aggressors[j].
  [[nodiscard]] u64 offset_of(usize j) const {
    const usize n = aggressors.size();
    return (j + n - phase) % n;
  }
};

/// Observer interface for row-level events. The RowHammer model listens to
/// build disturbance counters; counter-based mitigations listen to track
/// aggressors.
class RowEventListener {
 public:
  virtual ~RowEventListener() = default;
  /// A physical row was activated (sense + restore) at time `now`.
  virtual void on_activate(const RowAddr& row, Picoseconds now) = 0;
  /// A physical row's cells were restored at time `now`. Disturbance
  /// accumulated against this row so far can no longer flip it. kRewrite
  /// additionally recharges previously-flipped cells (fresh data).
  virtual void on_restore(const RowAddr& row, Picoseconds now, RestoreKind kind) = 0;

  /// Quiet horizon: how many of the next ACTs of `p` (at most `want`) this
  /// listener can take with no effect beyond counting -- no bit flip, no
  /// maintenance, no tracker insert or eviction, no random outcome other
  /// than a pre-drawn "no". 0 is always correct: the caller then issues the
  /// next ACT through activate().
  virtual u64 quiet_horizon(const ActPattern& /*p*/, u64 /*want*/) { return 0; }
  /// Applies `k` ACTs of `p` (k within the horizon just reported) exactly as
  /// k on_activate/on_restore pairs would have.
  virtual void skip_quiet(const ActPattern& /*p*/, u64 /*k*/) {}
};

/// The simulated device. All mutating commands advance the internal clock and
/// charge energy; `peek/poke/force_flip_bit` bypass timing and model physical
/// effects (fault injection, test setup).
class DramDevice {
 public:
  explicit DramDevice(DramConfig cfg);

  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  // ----- command interface (advances time, charges energy) -----

  /// ACT: opens `row` in its bank (implicitly PREs a different open row).
  /// Fires on_activate and on_restore for the row.
  void activate(const RowAddr& row);

  /// How many of the next ACTs of `p` (at most `want`) are quiet: each is a
  /// PRE+ACT pair that every listener only counts. Returns 0 unless `p` has
  /// at least two distinct aggressors of one bank and that bank holds
  /// another row open.
  u64 quiet_horizon(const ActPattern& p, u64 want);

  /// Issues `k` ACTs of `p` in bulk; `k` must be within the quiet_horizon
  /// reported just before. Clock, Stats, open row and every listener end
  /// exactly as after k activate() calls.
  void activate_quiet(const ActPattern& p, u64 k);

  /// Device time of one ACT that closes another open row (tRP + tACT).
  [[nodiscard]] Picoseconds act_period() const { return cfg_.timing.t_rp + cfg_.timing.t_act; }

  /// PRE: closes the open row of `bank` (no-op when already closed).
  void precharge(u32 bank);

  /// Reads one 64B burst; requires/establishes the row being open.
  void read_burst(const RowAddr& row, usize burst_index, std::span<u8> out);

  /// Writes one 64B burst; requires/establishes the row being open.
  /// Fires on_restore for the row.
  void write_burst(const RowAddr& row, usize burst_index, std::span<const u8> data);

  /// Convenience: full-row read via ACT + all bursts.
  std::vector<u8> read_row(const RowAddr& row);

  /// Convenience: full-row write via ACT + all bursts. `data` must be
  /// row_bytes long.
  void write_row(const RowAddr& row, std::span<const u8> data);

  /// RowClone-FPM: in-subarray bulk copy src -> dst via back-to-back ACTs
  /// (one tAAP, no channel transfer). Rows must share bank+subarray.
  /// Fires on_activate+on_restore(src) and on_restore(dst).
  void rowclone_fpm(u32 bank, u32 subarray, u32 src_row, u32 dst_row);

  /// RowClone-PSM: inter-bank copy through the internal bus (slower than FPM
  /// but still avoids the off-chip channel).
  void rowclone_psm(const RowAddr& src, const RowAddr& dst);

  /// One distributed-refresh slice: refreshes the next 1/refresh_steps of all
  /// rows (fires on_restore for each). Call refresh_steps times per Tref.
  void refresh_step();

  /// Refreshes every row at once (end-of-window convenience).
  void refresh_all();

  // ----- physical/cell-level access (no timing; models faults & test setup) -----
  // Every entry point above and below checks its addresses in all builds:
  // a bank, subarray, row, burst, column or bit outside the geometry throws
  // std::out_of_range, a buffer of the wrong size std::invalid_argument.

  [[nodiscard]] u8 peek(const RowAddr& row, usize col) const;
  void poke(const RowAddr& row, usize col, u8 value);
  [[nodiscard]] std::span<const u8> peek_row(const RowAddr& row) const;
  void poke_row(const RowAddr& row, std::span<const u8> data);

  /// Flips one cell (RowHammer fault injection). bit in [0,8).
  void force_flip_bit(const RowAddr& row, usize col, u32 bit);

  // ----- clock / bookkeeping -----

  [[nodiscard]] Picoseconds now() const { return now_; }
  /// Advances the clock without issuing commands (e.g. attacker think time).
  void advance(Picoseconds dt);

  [[nodiscard]] const DramConfig& config() const { return cfg_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Listener registration. Listeners are not owned.
  void add_listener(RowEventListener* l);
  void remove_listener(RowEventListener* l);

  /// Open row of a bank, or -1 when precharged (exposed for tests).
  [[nodiscard]] i64 open_row(u32 bank) const;

 private:
  void check_bank(u32 bank) const;
  void check_row(const RowAddr& row) const;
  void check_col(usize col) const;
  void check_row_size(usize bytes) const;
  /// Byte offset of a row in `cells_`; checks the address.
  usize row_offset(const RowAddr& row) const;
  static i64 in_bank_row(const Geometry& geo, const RowAddr& row) {
    return static_cast<i64>(row.subarray) * geo.rows_per_subarray + row.row;
  }
  void ensure_open(const RowAddr& row);
  void notify_activate(const RowAddr& row);
  void notify_restore(const RowAddr& row, RestoreKind kind);

  DramConfig cfg_;
  std::vector<u8> cells_;          ///< flat physical storage
  std::vector<i64> open_row_;      ///< per-bank open flat-row-within-bank, -1 = precharged
  std::vector<RowEventListener*> listeners_;
  Stats stats_;
  Picoseconds now_ = 0;
  u64 refresh_cursor_ = 0;  ///< next flat row id for distributed refresh
};

}  // namespace dnnd::dram
