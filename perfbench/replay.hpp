// Replays: the benchmark's own re-implementation of one campaign cell and of
// one serving pass, built only from public layer calls, with a span around
// each call. A traced replay must reproduce its untraced counterpart exactly
// (same deterministic cell JSON; same tick and swap counts), which is what
// lets its spans stand for the untraced run's time. The serving replay, with
// tracing off, is also the serve workload's measured pass.
#pragma once

#include <vector>

#include "harness/artifact_cache.hpp"
#include "harness/campaign.hpp"
#include "serving/serving.hpp"
#include "system/protected_system.hpp"
#include "trace.hpp"

namespace perfbench {

using dnnd::u64;

/// Deterministic work counters summed over replayed campaign cells.
struct CellCounters {
  u64 steps = 0;              ///< committed ProbeEngine steps
  u64 acts = 0;               ///< DRAM ACT commands
  u64 aaps = 0;               ///< RowClone AAPs
  u64 bitflips = 0;           ///< RowHammer flips injected into cells
  u64 sim_ps = 0;             ///< simulated device busy time
  u64 maintenance_ops = 0;    ///< mitigation swaps / shuffles / refreshes
  u64 maintenance_ps = 0;     ///< simulated device time spent on maintenance
  u64 attempts = 0;           ///< white-box flip attempts carried through DRAM
  u64 landed = 0;
  u64 blocked = 0;
};

/// Replays the dram-white-box cell `sc` the way CampaignRunner::run_scenario
/// runs it, against a warm cache. Span names: "harness.trained_model",
/// "nn.eval/<arch>", "attack.setup/<arch>", "attack.step/<arch>",
/// "system.build", "core.profile", "core.install", "system.attack_bit"
/// (children "dram.hammer", "system.sync"). Any other attack kind, and any
/// software prep, fails the cell.
dnnd::harness::ScenarioResult replay_cell(const dnnd::harness::Scenario& sc,
                                          dnnd::harness::ArtifactCache& cache, Tracer& tr,
                                          CellCounters& counters);

/// Per-batch host costs of one replayed serving pass.
struct ServeReplay {
  dnnd::serving::ServingPlan plan;
  std::vector<double> tick_s;     ///< every defender tick
  std::vector<double> batch_tick_s;  ///< ticks pumped before each batch
  std::vector<double> batch_eval_s;  ///< gather + evaluate_batch per batch
  usize ticks = 0;
};

/// Replays serve_regime's server loop back to back, without wall-clock
/// pacing: plans the schedule ("serving.plan"), then for each planned batch
/// pumps the due defender ticks ("core.tick") and evaluates the batch
/// ("nn.batch"). Spans are recorded only when `tr` is non-null.
ServeReplay replay_serving(dnnd::system::ProtectedSystem& psys, const dnnd::nn::Dataset& pool,
                           const dnnd::serving::ServeConfig& cfg, Tracer* tr);

/// Latency of every admitted request in a single-server queue that serves
/// the plan's batches in order, each taking its replayed host cost: a batch
/// starts once its last member has arrived and the previous batch is done.
/// These are the serve workload's latencies, and in the traced run the part
/// of the open-loop executor's latency that the spans account for.
std::vector<double> explained_latencies_s(const ServeReplay& replay);

}  // namespace perfbench
