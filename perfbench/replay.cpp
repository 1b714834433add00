#include "replay.hpp"

#include <stdexcept>
#include <string>

#include "attack/objective.hpp"
#include "attack/probe_engine.hpp"
#include "core/priority_profiler.hpp"
#include "quant/quantizer.hpp"

namespace perfbench {

using namespace dnnd;
using harness::AttackKind;

namespace {

void replay_impl(const harness::Scenario& sc, harness::ArtifactCache& cache, Tracer& tr,
                 CellCounters& counters, harness::ScenarioResult& r) {
  if (sc.attack != AttackKind::kDramWhiteBox) {
    throw std::invalid_argument("replay: attack kind " + harness::to_string(sc.attack) +
                                " is not part of any benchmark workload");
  }
  if (sc.prep != harness::SoftwarePrep::kNone || sc.reconstruction_guard || sc.record_trace) {
    throw std::invalid_argument("replay: software preps and trace cells are not replayed");
  }
  const std::string arch = sc.train.arch;
  const std::string step_span = "attack.step/" + arch;
  const std::string setup_span = "attack.setup/" + arch;
  const std::string eval_span = "nn.eval/" + arch;

  const u64 seed = harness::scenario_seed(sc);
  const nn::SplitDataset& data = cache.dataset(sc.dataset);
  const double stop_acc =
      sc.stop_accuracy > 0.0 ? sc.stop_accuracy : 1.1 / data.spec.num_classes;
  auto model = tr.time("harness.trained_model",
                       [&] { return cache.trained_model(sc.dataset, sc.train); });
  nn::Model& m = *model;
  auto [ax, ay] = data.test.head(sc.attack_batch);
  auto [ex, ey] = data.test.head(sc.eval_batch);
  auto eval_acc = [&] { return tr.time(eval_span, [&] { return m.evaluate_batch(ex, ey); }).accuracy; };

  quant::QuantizedModel qm(m);
  r.clean_accuracy = eval_acc();
  r.total_bits = qm.total_bits();
  const attack::BfaConfig bfa_defaults = {};
  const attack::ProbeEngineConfig engine_cfg{bfa_defaults.candidates_per_layer,
                                             bfa_defaults.layers_evaluated};

  system::ProtectedSystemConfig scfg;
  scfg.dram = sc.dram;
  scfg.seed = seed;
  system::ProtectedSystem psys = tr.time("system.build", [&] {
    return system::ProtectedSystem(qm, scfg);
  });
  if (sc.use_dnn_defender) {
    core::PriorityProfiler profiler(qm, ax, ay);
    const core::ProfileResult profile = tr.time(
        "core.profile", [&] { return profiler.profile_blocked_attacker(sc.profile_bits); });
    tr.time("core.install", [&] { psys.install_dnn_defender(profile); });
    r.secured_bits = psys.secured_bits().size();
  } else if (sc.mitigation) {
    tr.time("core.install", [&] {
      psys.install_mitigation(sc.mitigation(psys.device(), psys.remapper()));
    });
  }
  const dram::Stats dram0 = psys.device().stats();
  const defense::DefenseStats def0 =
      psys.mitigation() != nullptr ? psys.mitigation()->stats() : defense::DefenseStats{};

  // ProtectedSystem::run_white_box_attack, with attack_bit opened up into
  // its two calls so the hammer loop and the weight sync time apart.
  double acc = eval_acc();
  attack::UntargetedCeObjective objective;
  attack::ProbeEngine engine = tr.time(setup_span, [&] {
    return attack::ProbeEngine(qm, ax, ay, objective, engine_cfg);
  });
  quant::BitSkipSet learned_blocked;
  while (r.attempts < sc.hw_attempts) {
    const auto rec = tr.time(step_span, [&] { return engine.step(learned_blocked); });
    if (!rec.has_value()) break;
    ++counters.steps;
    qm.flip(rec->loc);  // undo the search's commit; DRAM is authoritative
    const attack::FlipAttempt attempt = tr.time("system.attack_bit", [&] {
      const attack::FlipAttempt a =
          tr.time("dram.hammer", [&] { return psys.deephammer().attempt_flip(rec->loc); });
      tr.time("system.sync", [&] { psys.sync_model_from_dram(); });
      return a;
    });
    r.attempts += 1;
    if (attempt.success) {
      r.landed += 1;
    } else {
      r.blocked += 1;
      learned_blocked.insert(rec->loc);
    }
    acc = tr.time(eval_span, [&] { return m.evaluate_batch_incremental(ex, ey); }).accuracy;
    if (acc <= stop_acc) break;
  }
  r.post_accuracy = acc;
  r.flips = std::to_string(r.attempts) + " (" + std::to_string(r.landed) + " landed)";

  const dram::Stats& dram1 = psys.device().stats();
  counters.acts += dram1.n_act - dram0.n_act;
  counters.aaps += dram1.n_aap - dram0.n_aap;
  counters.bitflips += dram1.n_bitflips - dram0.n_bitflips;
  counters.sim_ps += static_cast<u64>(dram1.busy_time - dram0.busy_time);
  if (psys.mitigation() != nullptr) {
    const defense::DefenseStats& def1 = psys.mitigation()->stats();
    counters.maintenance_ops += def1.maintenance_ops - def0.maintenance_ops;
    counters.maintenance_ps += static_cast<u64>(def1.time_spent - def0.time_spent);
  }
  counters.attempts += r.attempts;
  counters.landed += r.landed;
  counters.blocked += r.blocked;
}

}  // namespace

harness::ScenarioResult replay_cell(const harness::Scenario& sc, harness::ArtifactCache& cache,
                                    Tracer& tr, CellCounters& counters) {
  harness::ScenarioResult r;
  r.id = sc.id;
  r.label = sc.label.empty() ? sc.id : sc.label;
  r.model = sc.train.arch +
            (sc.train.width_mult > 1 ? " (x" + std::to_string(sc.train.width_mult) + ")" : "");
  r.defense = sc.defense;
  r.attack = harness::to_string(sc.attack);
  try {
    replay_impl(sc, cache, tr, counters, r);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

ServeReplay replay_serving(system::ProtectedSystem& psys, const nn::Dataset& pool,
                           const serving::ServeConfig& cfg, Tracer* tr) {
  // Spans only when tracing; the per-call costs are timed either way.
  const auto timed = [tr](const char* name, auto&& fn) {
    const double t0 = now_s();
    if (tr != nullptr) {
      tr->time(name, fn);
    } else {
      fn();
    }
    return now_s() - t0;
  };
  ServeReplay out;
  timed("serving.plan", [&] { out.plan = serving::plan_serving(cfg, pool.size()); });
  nn::Model& model = psys.qm().model();
  const u64 tick_ns = static_cast<u64>(cfg.tick_every_us) * 1000ULL;
  nn::Tensor batch_x;
  std::vector<u32> batch_y;
  std::vector<usize> sample_idx;
  for (const serving::PlannedBatch& b : out.plan.batches) {
    double ticks_s = 0.0;
    while (tick_ns > 0 && (out.ticks + 1) * tick_ns <= b.finish_ns) {
      out.ticks += 1;
      out.tick_s.push_back(timed("core.tick", [&] {
        psys.advance_time_to(static_cast<Picoseconds>(out.ticks * tick_ns) * 1000);
      }));
      ticks_s += out.tick_s.back();
    }
    out.batch_tick_s.push_back(ticks_s);
    out.batch_eval_s.push_back(timed("nn.batch", [&] {
      sample_idx.clear();
      for (usize k = 0; k < b.count; ++k) {
        sample_idx.push_back(out.plan.arrivals[out.plan.admitted[b.first + k]].sample);
      }
      pool.gather_into(sample_idx, batch_x, batch_y);
      model.evaluate_batch(batch_x, batch_y);
    }));
  }
  return out;
}

std::vector<double> explained_latencies_s(const ServeReplay& replay) {
  const serving::ServingPlan& plan = replay.plan;
  std::vector<double> lat;
  lat.reserve(plan.admitted.size());
  double free_at = 0.0;
  for (usize bi = 0; bi < plan.batches.size(); ++bi) {
    const serving::PlannedBatch& b = plan.batches[bi];
    if (b.count == 0) continue;
    const auto arrival_s = [&](usize k) {
      return static_cast<double>(plan.arrivals[plan.admitted[b.first + k]].arrival_ns) * 1e-9;
    };
    const double start = std::max(free_at, arrival_s(b.count - 1));
    free_at = start + replay.batch_tick_s[bi] + replay.batch_eval_s[bi];
    for (usize k = 0; k < b.count; ++k) lat.push_back(free_at - arrival_s(k));
  }
  return lat;
}

}  // namespace perfbench
