// perfbench: the repository benchmark (see NOTES.md for the workloads, the
// metrics, and the baseline numbers).
//
//   perfbench --workload dram|serve --seed N --seconds S --trace 0|1
//             [--small] [--trace-out FILE]
//
// --trace 0 sets the workload up three times, then repeats its measured pass
// for about S seconds (dram makes at least two passes) and prints every
// end-to-end metric: set-up time as the median of the set-ups, every other
// timing as the best of the passes.
// --trace 1 sets up once with spans around each layer call, runs one
// untraced reference (a campaign pass, or the open-loop serving
// executor), replays the same work from replay.cpp with spans, checks that
// the replay reproduced the reference exactly, and prints every per-layer
// metric. Either way the last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
//
// --seed 0 keeps every cell's registry seed (ids hashed, as bench_grid runs
// them) and ServeConfig's default seed; any other value derives a
// per-cell Scenario::seed_override and the ServeConfig seed from it. Training
// seeds never change. --small swaps in the tiny dataset and the test MLP for
// the benchmark's own counter test.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/priority_profiler.hpp"
#include "harness/campaign.hpp"
#include "harness/registry.hpp"
#include "nn/gemm.hpp"
#include "nn/simd.hpp"
#include "quant/quantizer.hpp"
#include "replay.hpp"
#include "serving/report.hpp"
#include "serving/server.hpp"
#include "sys/rng.hpp"

using namespace dnnd;
using perfbench::median;
using perfbench::now_s;
using perfbench::percentile;
using perfbench::Tracer;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end and per_layer entries of BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"campaign_s", "s"},   {"p50_ms", "ms"},
    {"p99_ms", "ms"},      {"achieved_rps", "1/s"}, {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"harness.dataset_s", "s"},
    {"nn.train_s", "s"},
    {"core.profile_s", "s"},
    {"attack.step_ms.vgg11", "ms"},
    {"attack.steps", "count"},
    {"nn.grad_ms.vgg11", "ms"},
    {"nn.probe_us.vgg11", "us"},
    {"nn.eval_ms.vgg11", "ms"},
    {"system.attack_bit_ms", "ms"},
    {"system.sync_ms", "ms"},
    {"dram.host_ns_per_act", "ns"},
    {"dram.acts", "count"},
    {"dram.aaps", "count"},
    {"dram.bitflips", "count"},
    {"dram.sim_ms", "ms"},
    {"defense.maintenance_ops", "count"},
    {"defense.sim_ms", "ms"},
    {"attack.attempts", "count"},
    {"attack.landed", "count"},
    {"attack.blocked", "count"},
    {"core.warmup_ms", "ms"},
    {"core.tick_ms.p50", "ms"},
    {"core.tick_ms.p99", "ms"},
    {"core.tick_ms.max", "ms"},
    {"core.tick_ms_per_batch.p99", "ms"},
    {"nn.batch_ms.p50", "ms"},
    {"nn.batch_ms.p99", "ms"},
    {"serving.plan_ms", "ms"},
    {"core.swaps", "count"},
    {"serve.ticks", "count"},
    {"serve.samples", "count"},
    {"serve.p99_ms", "ms"},
    {"serve.explained_p99_ms", "ms"},
    {"serve.unexplained_share", "ratio"},
    {"trace.replay_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.gap_share", "ratio"},
    {"trace.attributed_share", "ratio"},
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

/// What one run measured, and how many of its operations failed a check.
struct Outcome {
  usize attempted = 0;
  usize failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    failed += 1;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
};

/// Set-up runs on a team of 3 GEMM threads; the measured work picks its own.
constexpr usize kSetupThreads = 3;
/// Virtual time the serve workload's defender runs before serving starts.
constexpr Picoseconds kWarmup = 100'000'000'000;  // 100 ms

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

u64 derive_seed(u64 seed, std::string_view tag) {
  const u64 s = sys::hash_combine(seed, sys::stable_hash64(tag));
  return s != 0 ? s : 1;
}

/// The best (smallest) of a run's per-pass timings. The host is shared and
/// slows identical work by up to 2x for seconds at a time; most stretches of
/// a run still have quiet moments, so the fastest of many short passes is
/// far steadier from run to run than the median pass (NOTES.md).
double best(const std::vector<double>& pass_values) {
  return *std::min_element(pass_values.begin(), pass_values.end());
}

/// Whether another pass fits the measured window that began at `t0`: it
/// runs if, taking as long as the median pass so far, it would end closer to
/// the window's end than stopping now does. A run overshoots by at most
/// half a pass.
bool window_left(double t0, double seconds, const std::vector<double>& pass_s) {
  return now_s() - t0 + median(pass_s) / 2.0 < seconds;
}

template <typename Fn>
decltype(auto) maybe_time(Tracer* tr, const char* name, Fn&& fn) {
  if (tr != nullptr) return tr->time(name, std::forward<Fn>(fn));
  return fn();
}

std::string cell_json(const harness::ScenarioResult& r) {
  sys::JsonWriter w;
  harness::scenario_result_to_json(w, r);
  return w.str();
}

// ----- dram: a campaign of grid cells -----------------------------------------------

std::vector<harness::Scenario> campaign_cells(const Options& o) {
  harness::GridSpec spec;
  spec.small = o.small;
  spec.preps = {"none"};
  spec.dataset = o.small ? harness::DatasetKind::kTinyEasy : harness::DatasetKind::kCifar10Like;
  spec.models = {o.small ? "mlp" : "vgg11"};
  spec.generations = {dram::DeviceGen::kDdr3Old};
  spec.attacks = {harness::AttackKind::kDramWhiteBox};
  spec.defenses = {"none", "para", "rrs", "srs", "shadow", "graphene", "hydra", "dnn-defender"};
  std::vector<harness::Scenario> cells = harness::enumerate_grid(spec);
  if (o.seed != 0) {
    for (harness::Scenario& sc : cells) sc.seed_override = derive_seed(o.seed, sc.id);
  }
  return cells;
}

/// Cold set-up of every artifact the cells share: the dataset, each trained
/// model, and one quantization of each.
void setup_artifacts(harness::ArtifactCache& cache, const std::vector<harness::Scenario>& cells,
                     Tracer* tr) {
  maybe_time(tr, "harness.dataset", [&] { return &cache.dataset(cells.front().dataset); });
  std::set<std::string> done;
  for (const harness::Scenario& sc : cells) {
    if (!done.insert(sc.train.arch).second) continue;
    auto model = maybe_time(tr, "nn.train",
                            [&] { return cache.trained_model(sc.dataset, sc.train); });
    maybe_time(tr, "quant.quantize", [&] { return quant::QuantizedModel(*model).total_bits(); });
  }
}

/// Median-of-repeats host cost of the three `nn` calls the attack layers
/// make, on one model: a gradient pass on the attack batch, the mean
/// forward_from(k) probe over every top-level layer k, and a full eval batch.
void measure_nn(harness::ArtifactCache& cache, const harness::Scenario& sc, Outcome& out) {
  constexpr int kReps = 5;
  const nn::SplitDataset& data = cache.dataset(sc.dataset);
  auto model = cache.trained_model(sc.dataset, sc.train);
  const quant::QuantizedModel qm(*model);
  auto [ax, ay] = data.test.head(sc.attack_batch);
  auto [ex, ey] = data.test.head(sc.eval_batch);
  std::vector<double> grad, probe, eval;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    model->zero_grad();
    model->loss_and_grad(ax, ay);
    grad.push_back(now_s() - t0);
  }
  model->forward_cached(ax);
  const usize layers = model->net().layer_count();
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    for (usize k = 0; k < layers; ++k) model->forward_from(k);
    probe.push_back((now_s() - t0) / static_cast<double>(layers));
  }
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    model->evaluate_batch(ex, ey);
    eval.push_back(now_s() - t0);
  }
  const std::string& arch = sc.train.arch;
  out.metrics["nn.grad_ms." + arch] = median(grad) * 1e3;
  out.metrics["nn.probe_us." + arch] = median(probe) * 1e6;
  out.metrics["nn.eval_ms." + arch] = median(eval) * 1e3;
}

Outcome run_campaign(const Options& o) {
  const std::vector<harness::Scenario> cells = campaign_cells(o);
  Outcome out;
  nn::gemm::set_threads(kSetupThreads);
  // One campaign worker; CampaignRunner then gives each cell a GEMM team of 1.
  const harness::CampaignConfig ccfg{.threads = 1};

  if (!o.trace) {
    const int setup_reps = o.small ? 2 : 3;
    // A cell's latency runs from the start of its pass, when every cell is
    // due, until its result is delivered (the on_result hook).
    std::vector<double> done_at;
    harness::CampaignConfig timed_cfg = ccfg;
    timed_cfg.on_result = [&done_at](const harness::ScenarioResult&) {
      done_at.push_back(now_s());
    };
    std::vector<double> setup_s;
    std::unique_ptr<harness::CampaignRunner> runner;
    for (int rep = 0; rep < setup_reps; ++rep) {
      runner.reset();
      const double t0 = now_s();
      runner = std::make_unique<harness::CampaignRunner>(timed_cfg);
      setup_artifacts(runner->cache(), cells, nullptr);
      setup_s.push_back(now_s() - t0);
    }

    std::vector<std::string> reference;
    std::vector<double> pass_s, p50_s, p99_s;
    const double t0 = now_s();
    do {
      done_at.clear();
      const double p0 = now_s();
      const harness::CampaignResult res = runner->run(cells);
      pass_s.push_back(res.total_seconds);
      std::vector<double> latency_s;
      for (const double t : done_at) latency_s.push_back(t - p0);
      p50_s.push_back(percentile(latency_s, 50.0));
      p99_s.push_back(percentile(latency_s, 99.0));
      if (done_at.size() != cells.size()) out.fail("campaign delivered a wrong number of results");
      for (usize i = 0; i < cells.size(); ++i) {
        const harness::ScenarioResult& r = res.results[i];
        out.attempted += 1;
        const std::string json = cell_json(r);
        if (!r.ok) {
          out.fail(r.id + ": " + r.error);
        } else if (reference.size() == i) {
          reference.push_back(json);
        } else if (reference[i] != json) {
          out.fail(r.id + ": campaign JSON differs from the first pass");
        }
      }
    } while (pass_s.size() < 2 || window_left(t0, o.seconds, pass_s));

    out.metrics["setup_s"] = median(setup_s);
    out.metrics["campaign_s"] = best(pass_s);
    out.metrics["p50_ms"] = best(p50_s) * 1e3;
    out.metrics["p99_ms"] = best(p99_s) * 1e3;
    out.metrics["achieved_rps"] = static_cast<double>(cells.size()) / best(pass_s);
    std::printf("[perfbench] %s: %zu cells x %zu passes, %zu set-ups\n", o.workload.c_str(),
                cells.size(), pass_s.size(), setup_s.size());
    return out;
  }

  Tracer tr;
  harness::CampaignRunner runner(ccfg);
  setup_artifacts(runner.cache(), cells, &tr);
  out.metrics["harness.dataset_s"] = tr.total("harness.dataset");
  out.metrics["nn.train_s"] = tr.total("nn.train");

  const harness::CampaignResult ref = runner.run(cells);
  nn::gemm::set_threads(1);  // the team the runner gave each cell
  perfbench::CellCounters counters;
  for (usize i = 0; i < cells.size(); ++i) {
    const harness::ScenarioResult r = tr.time(
        "cell", [&] { return perfbench::replay_cell(cells[i], runner.cache(), tr, counters); });
    out.attempted += 2;
    if (!ref.results[i].ok) out.fail(ref.results[i].id + ": " + ref.results[i].error);
    if (!r.ok) {
      out.fail(r.id + " (replay): " + r.error);
    } else if (cell_json(r) != cell_json(ref.results[i])) {
      out.fail(r.id + ": replay differs from the untraced cell");
    }
  }

  std::set<std::string> measured;
  for (const harness::Scenario& sc : cells) {
    const std::string& arch = sc.train.arch;
    if (measured.insert(arch).second) measure_nn(runner.cache(), sc, out);
    const std::vector<double> steps = tr.durations("attack.step/" + arch);
    out.metrics["attack.step_ms." + arch] = perfbench::mean(steps) * 1e3;
  }
  const double attack_bit_s = tr.total("system.attack_bit");
  out.metrics["core.profile_s"] = tr.total("core.profile");
  out.metrics["attack.steps"] = static_cast<double>(counters.steps);
  out.metrics["system.attack_bit_ms"] = perfbench::mean(tr.durations("system.attack_bit")) * 1e3;
  out.metrics["system.sync_ms"] = perfbench::mean(tr.durations("system.sync")) * 1e3;
  out.metrics["dram.host_ns_per_act"] =
      counters.acts > 0 ? attack_bit_s * 1e9 / static_cast<double>(counters.acts) : 0.0;
  out.metrics["dram.acts"] = static_cast<double>(counters.acts);
  out.metrics["dram.aaps"] = static_cast<double>(counters.aaps);
  out.metrics["dram.bitflips"] = static_cast<double>(counters.bitflips);
  out.metrics["dram.sim_ms"] = static_cast<double>(counters.sim_ps) * 1e-9;
  out.metrics["defense.maintenance_ops"] = static_cast<double>(counters.maintenance_ops);
  out.metrics["defense.sim_ms"] = static_cast<double>(counters.maintenance_ps) * 1e-9;
  out.metrics["attack.attempts"] = static_cast<double>(counters.attempts);
  out.metrics["attack.landed"] = static_cast<double>(counters.landed);
  out.metrics["attack.blocked"] = static_cast<double>(counters.blocked);

  // Reconciliation: the replay's cell spans against the untraced pass, and
  // how much of each cell's span its named child spans cover.
  const double replay_s = tr.total("cell");
  out.metrics["trace.replay_s"] = replay_s;
  out.metrics["trace.untraced_s"] = ref.total_seconds;
  out.metrics["trace.gap_share"] = (replay_s - ref.total_seconds) / ref.total_seconds;
  out.metrics["trace.attributed_share"] = tr.child_total("cell") / replay_s;
  std::printf("[perfbench] %s trace: replay %.3f s vs untraced %.3f s; child spans cover "
              "%.1f%% of the replay\n",
              o.workload.c_str(), replay_s, ref.total_seconds,
              100.0 * out.metrics["trace.attributed_share"]);
  if (!o.trace_out.empty()) std::ofstream(o.trace_out) << tr.to_json() << "\n";
  return out;
}

// ----- serve workload ------------------------------------------------------------

/// One DNN-Defender-protected model ready to serve: the defense-on regime.
struct ServeRig {
  harness::ArtifactCache cache;
  const nn::SplitDataset* data = nullptr;
  nn::Tensor ex, ax;
  std::vector<u32> ey, ay;
  core::ProfileResult profile;
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<quant::QuantizedModel> qm;
  std::unique_ptr<system::ProtectedSystem> psys;
};

harness::DatasetKind serve_dataset(const Options& o) {
  return o.small ? harness::DatasetKind::kTinyEasy : harness::DatasetKind::kCifar10Like;
}

harness::TrainSpec serve_train(const Options& o) {
  return o.small ? harness::TrainSpec{.arch = "mlp", .width_mult = 1, .epochs = 5, .seed = 7}
                 : harness::TrainSpec{.arch = "vgg11", .width_mult = 1, .epochs = 6, .seed = 1};
}

serving::ServeConfig serve_config(const Options& o) {
  serving::ServeConfig cfg;
  cfg.rate_rps = 1000;
  cfg.duration_ms = o.small ? 1000 : 4000;
  if (o.seed != 0) cfg.seed = derive_seed(o.seed, "serve");
  cfg.attack_every = 0;
  // Hold every request, so the percentiles are exact.
  cfg.reservoir = 2 * cfg.rate_rps * cfg.duration_ms / 1000 + 1024;
  cfg.normalize();
  return cfg;
}

/// Builds a fresh quantized model + protected system on `rig` (its cache
/// warm or cold) and installs DNN-Defender, profiling first unless the rig
/// already carries a profile.
void build_served_system(ServeRig& rig, const Options& o, const serving::ServeConfig& cfg,
                         Tracer* tr) {
  rig.psys.reset();  // the system holds the quantized model, which holds the model
  rig.qm.reset();
  rig.model = maybe_time(tr, "nn.train",
                         [&] { return rig.cache.trained_model(serve_dataset(o), serve_train(o)); });
  rig.qm = maybe_time(tr, "quant.quantize",
                      [&] { return std::make_unique<quant::QuantizedModel>(*rig.model); });
  system::ProtectedSystemConfig scfg;
  scfg.seed = cfg.seed;
  rig.psys = std::make_unique<system::ProtectedSystem>(*rig.qm, scfg);
  if (rig.profile.priority_bits.empty()) {
    core::PriorityProfiler profiler(*rig.qm, rig.ax, rig.ay);
    rig.profile = maybe_time(tr, "core.profile",
                             [&] { return profiler.profile_blocked_attacker(60); });
  }
  maybe_time(tr, "core.install", [&] { rig.psys->install_dnn_defender(rig.profile); });
  // Warm the defender through its first swap cycle before anything is timed
  // against it: its first ~1,850 swaps cost ~90x a steady-state swap on
  // average and otherwise set the whole run's p99 (NOTES.md). Serving starts at
  // virtual time 0 with the device clock kWarmup ahead, so its ticks in
  // that first stretch find no swap due.
  const Picoseconds tick_ps = static_cast<Picoseconds>(cfg.tick_every_us) * 1'000'000;
  maybe_time(tr, "core.warmup", [&] {
    for (Picoseconds t = tick_ps; t <= kWarmup; t += tick_ps) {
      rig.psys->advance_time_to(t);
    }
  });
}

std::unique_ptr<ServeRig> setup_serve(const Options& o, const serving::ServeConfig& cfg,
                                      Tracer* tr) {
  auto rig = std::make_unique<ServeRig>();
  rig->data = maybe_time(tr, "harness.dataset",
                         [&] { return &rig->cache.dataset(serve_dataset(o)); });
  std::tie(rig->ex, rig->ey) = rig->data->test.head(std::min<usize>(rig->data->test.size(), 160));
  std::tie(rig->ax, rig->ay) = rig->data->test.head(32);
  build_served_system(*rig, o, cfg, tr);
  return rig;
}

/// The serving GEMM team: the server thread alone. A helper thread made
/// every pass wait on its wake-ups on a busy host (NOTES.md).
constexpr usize kServeThreads = 1;

perfbench::ServeReplay replay_once(ServeRig& rig, const serving::ServeConfig& cfg, Tracer* tr) {
  nn::gemm::set_threads(kServeThreads);
  perfbench::ServeReplay replay = perfbench::replay_serving(*rig.psys, rig.data->test, cfg, tr);
  nn::gemm::set_threads(kSetupThreads);
  return replay;
}

Outcome run_serve(const Options& o) {
  const serving::ServeConfig cfg = serve_config(o);
  Outcome out;
  nn::gemm::set_threads(kSetupThreads);

  if (!o.trace) {
    const int setup_reps = o.small ? 2 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<ServeRig> rig;
    for (int rep = 0; rep < setup_reps; ++rep) {
      rig.reset();
      const double t0 = now_s();
      rig = setup_serve(o, cfg, nullptr);
      setup_s.push_back(now_s() - t0);
    }

    // Each pass serves the whole schedule back to back on a fresh, warmed
    // system, with tracing off; latencies come from the single-server queue
    // over the measured per-batch costs (explained_latencies_s).
    std::vector<double> pass_s, p50_s, p99_s;
    usize swaps = 0;
    const double t0 = now_s();
    do {
      if (!pass_s.empty()) build_served_system(*rig, o, cfg, nullptr);
      const double p0 = now_s();
      const perfbench::ServeReplay replay = replay_once(*rig, cfg, nullptr);
      pass_s.push_back(now_s() - p0);
      const std::vector<double> lat = perfbench::explained_latencies_s(replay);
      p50_s.push_back(percentile(lat, 50.0));
      p99_s.push_back(percentile(lat, 99.0));
      out.attempted += replay.plan.arrivals.size();
      if (!replay.plan.dropped.empty()) {
        out.fail(std::to_string(replay.plan.dropped.size()) + " requests dropped");
      }
      if (replay.ticks != replay.plan.ticks) {
        out.fail("serve: " + std::to_string(replay.ticks) + " ticks pumped, plan has " +
                 std::to_string(replay.plan.ticks));
      }
      const usize pass_swaps = rig->psys->defender()->swap_stats().swaps;
      if (pass_s.size() == 1) {
        swaps = pass_swaps;
      } else if (pass_swaps != swaps) {
        out.fail("serve: swap count differs between passes");
      }
    } while (window_left(t0, o.seconds, pass_s));

    const usize requests = out.attempted / pass_s.size();  // every pass serves one plan
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["campaign_s"] = best(pass_s);
    out.metrics["p50_ms"] = best(p50_s) * 1e3;
    out.metrics["p99_ms"] = best(p99_s) * 1e3;
    out.metrics["achieved_rps"] = static_cast<double>(requests) / best(pass_s);
    std::printf("[perfbench] serve: %zu-ms schedule at %zu rps (%zu requests, every one a "
                "latency sample) x %zu passes, %zu set-ups\n",
                cfg.duration_ms, cfg.rate_rps, requests, pass_s.size(),
                setup_s.size());
    return out;
  }

  // Traced: the real open-loop executor first (untraced reference), then the
  // traced replay on a fresh system carrying the same profile.
  Tracer tr;
  std::unique_ptr<ServeRig> rig = setup_serve(o, cfg, &tr);
  out.metrics["harness.dataset_s"] = tr.total("harness.dataset");
  out.metrics["nn.train_s"] = tr.total("nn.train");
  out.metrics["core.profile_s"] = tr.total("core.profile");
  out.metrics["core.warmup_ms"] = tr.total("core.warmup") * 1e3;

  nn::gemm::set_threads(kServeThreads);
  const serving::RegimeStats stats =
      serving::serve_regime("defense-on", *rig->psys, rig->data->test, rig->ex, rig->ey,
                            rig->ax, rig->ay, cfg, /*attack_on=*/false);
  nn::gemm::set_threads(kSetupThreads);
  const u64 ref_swaps = rig->psys->defender()->swap_stats().swaps;
  serving::ServingReport report;
  report.model = serve_train(o).arch;
  report.threads = kServeThreads;
  report.simd = nn::simd::isa_name(nn::simd::active_isa());
  report.config = cfg;
  report.regimes.push_back(stats);
  out.attempted += stats.requests;
  if (stats.dropped > 0) out.fail(std::to_string(stats.dropped) + " requests dropped");
  try {
    serving::validate_serving_report(report);
  } catch (const std::exception& e) {
    out.fail(std::string("validate_serving_report: ") + e.what());
  }

  build_served_system(*rig, o, cfg, nullptr);
  const dram::Stats dram0 = rig->psys->device().stats();
  const defense::DefenseStats def0 = rig->psys->mitigation()->stats();
  const u64 swaps0 = rig->psys->defender()->swap_stats().swaps;
  const perfbench::ServeReplay replay = replay_once(*rig, cfg, &tr);
  const dram::Stats& dram1 = rig->psys->device().stats();
  const defense::DefenseStats& def1 = rig->psys->mitigation()->stats();
  const u64 swaps = rig->psys->defender()->swap_stats().swaps;
  out.attempted += 1;
  if (replay.ticks != stats.ticks || swaps != ref_swaps) {
    out.fail("serve replay: " + std::to_string(replay.ticks) + " ticks / " +
             std::to_string(swaps) + " swaps vs untraced " + std::to_string(stats.ticks) +
             " / " + std::to_string(ref_swaps));
  }

  const double p99_ms = static_cast<double>(stats.p99_ns) * 1e-6;
  const double explained_ms = percentile(perfbench::explained_latencies_s(replay), 99.0) * 1e3;
  out.metrics["core.tick_ms.p50"] = percentile(replay.tick_s, 50.0) * 1e3;
  out.metrics["core.tick_ms.p99"] = percentile(replay.tick_s, 99.0) * 1e3;
  out.metrics["core.tick_ms.max"] = percentile(replay.tick_s, 100.0) * 1e3;
  out.metrics["core.tick_ms_per_batch.p99"] = percentile(replay.batch_tick_s, 99.0) * 1e3;
  out.metrics["nn.batch_ms.p50"] = percentile(replay.batch_eval_s, 50.0) * 1e3;
  out.metrics["nn.batch_ms.p99"] = percentile(replay.batch_eval_s, 99.0) * 1e3;
  out.metrics["serving.plan_ms"] = tr.total("serving.plan") * 1e3;
  out.metrics["core.swaps"] = static_cast<double>(swaps - swaps0);
  out.metrics["serve.ticks"] = static_cast<double>(replay.ticks);
  out.metrics["serve.samples"] = static_cast<double>(stats.latencies_seen);
  out.metrics["dram.acts"] = static_cast<double>(dram1.n_act - dram0.n_act);
  out.metrics["dram.aaps"] = static_cast<double>(dram1.n_aap - dram0.n_aap);
  out.metrics["dram.sim_ms"] = static_cast<double>(dram1.busy_time - dram0.busy_time) * 1e-9;
  out.metrics["defense.maintenance_ops"] =
      static_cast<double>(def1.maintenance_ops - def0.maintenance_ops);
  out.metrics["defense.sim_ms"] = static_cast<double>(def1.time_spent - def0.time_spent) * 1e-9;
  out.metrics["serve.p99_ms"] = p99_ms;
  out.metrics["serve.explained_p99_ms"] = explained_ms;
  out.metrics["serve.unexplained_share"] = std::max(0.0, 1.0 - explained_ms / p99_ms);
  std::printf("[perfbench] serve trace: open-loop p99 %.3f ms over %llu samples; the replayed "
              "ticks and batches explain a p99 of %.3f ms\n",
              p99_ms, static_cast<unsigned long long>(stats.latencies_seen), explained_ms);
  if (!o.trace_out.empty()) std::ofstream(o.trace_out) << tr.to_json() << "\n";
  return out;
}

// ----- output ----------------------------------------------------------------------

void print_result(const Outcome& out, bool trace) {
  sys::JsonWriter w;
  w.begin_object();
  w.key("correct").value(out.failed == 0);
  w.key("attempted").value(out.attempted);
  w.key("failed").value(out.failed);
  w.key("metrics").begin_object();
  for (const MetricDef& m : trace ? std::span<const MetricDef>(kPerLayer)
                                  : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = out.metrics.find(m.name);
    // A layer the workload never calls reads 0; every end-to-end metric is
    // measured on every workload.
    if (it == out.metrics.end() && !trace) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") + m.name);
    }
    w.key(m.name).begin_object();
    w.key("value").value(it != out.metrics.end() ? it->second : 0.0);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dram|serve --seed N --seconds S --trace 0|1 "
               "[--small] [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      o.small = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload != "dram" && o.workload != "serve") {
    return usage(argv[0]);
  }
  if (nn::simd::int8_enabled()) {
    std::fprintf(stderr, "perfbench: the int8 regime is not benchmarked; unset DNND_INT8\n");
    return 2;
  }
  Outcome out = o.workload == "serve" ? run_serve(o) : run_campaign(o);
  if (!o.trace) out.metrics["peak_rss_mb"] = peak_rss_mb();
  print_result(out, o.trace);
  return 0;
}
