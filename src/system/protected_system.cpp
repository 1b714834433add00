#include "system/protected_system.hpp"

#include <algorithm>

#include "attack/probe_engine.hpp"

namespace dnnd::system {

using dram::RowAddr;

ProtectedSystem::ProtectedSystem(quant::QuantizedModel& qm, ProtectedSystemConfig cfg)
    : qm_(qm), cfg_(cfg) {
  cfg_.mapping.reserved_rows_per_subarray =
      std::max<u32>(cfg_.mapping.reserved_rows_per_subarray, 1);
  device_ = std::make_unique<dram::DramDevice>(cfg_.dram);
  remap_ = std::make_unique<dram::RowRemapper>(cfg_.dram.geo);
  hammer_ = std::make_unique<rowhammer::HammerModel>(*device_, cfg_.hammer);
  mapping_ = std::make_unique<mapping::WeightMapping>(qm_, cfg_.dram, cfg_.mapping);
  mapping_->upload(qm_, *device_, *remap_);
  deephammer_ =
      std::make_unique<attack::DeepHammerAttack>(*device_, *hammer_, *mapping_, *remap_,
                                                 cfg_.deephammer);
}

void ProtectedSystem::install_hook() {
  if (mitigation_) {
    defense::Mitigation* m = mitigation_.get();
    deephammer_->driver().set_post_act_hook(
        [m] { m->tick(); },
        [m](const dram::ActPattern& p, u64 want) { return m->quiet_horizon(p, want); });
  } else {
    deephammer_->driver().set_post_act_hook({});
  }
}

core::DnnDefender& ProtectedSystem::install_dnn_defender(const core::ProfileResult& profile,
                                                         usize max_bits,
                                                         core::DnnDefenderConfig cfg) {
  auto dd = std::make_unique<core::DnnDefender>(*device_, *remap_, cfg);
  std::vector<RowAddr> targets = core::PriorityProfiler::target_rows(profile, *mapping_,
                                                                     max_bits);
  // Non-target victims: every other weight row, in layout order.
  std::vector<RowAddr> non_targets;
  for (const RowAddr& row : mapping_->weight_rows()) {
    if (std::find(targets.begin(), targets.end(), row) == targets.end()) {
      non_targets.push_back(row);
    }
  }
  dd->set_protected_rows(std::move(targets), std::move(non_targets));
  defender_ = dd.get();
  mitigation_ = std::move(dd);
  install_hook();
  return *defender_;
}

void ProtectedSystem::install_mitigation(std::unique_ptr<defense::Mitigation> mitigation) {
  defender_ = nullptr;
  mitigation_ = std::move(mitigation);
  install_hook();
}

void ProtectedSystem::clear_mitigation() {
  defender_ = nullptr;
  mitigation_.reset();
  install_hook();
}

attack::FlipAttempt ProtectedSystem::attack_bit(const quant::BitLocation& loc) {
  attack::FlipAttempt attempt = deephammer_->attempt_flip(loc);
  sync_model_from_dram();
  return attempt;
}

void ProtectedSystem::sync_model_from_dram() {
  mapping_->download(qm_, *device_, *remap_);
}

void ProtectedSystem::upload_model_to_dram() {
  mapping_->upload(qm_, *device_, *remap_);
}

bool ProtectedSystem::advance_time_to(Picoseconds target) {
  if (target > device_->now()) device_->advance(target - device_->now());
  if (!mitigation_) return false;
  mitigation_->tick();
  return true;
}

quant::BitSkipSet ProtectedSystem::secured_bits() const {
  quant::BitSkipSet set;
  if (defender_ == nullptr) return set;
  for (const RowAddr& row : defender_->targets()) {
    const usize count = mapping_->weights_in_row(row);
    for (usize col = 0; col < count; ++col) {
      const auto w = mapping_->weight_at(row, col);
      if (!w.has_value()) continue;
      for (u32 bit = 0; bit < 8; ++bit) {
        set.insert(quant::BitLocation{w->layer, w->index, bit});
      }
    }
  }
  return set;
}

SystemAttackResult ProtectedSystem::run_white_box_attack(
    const nn::Tensor& attack_x, const std::vector<u32>& attack_y, const nn::Tensor& eval_x,
    const std::vector<u32>& eval_y, usize max_attempts, double stop_accuracy,
    attack::BfaConfig bfa_cfg) {
  SystemAttackResult result;
  result.initial_accuracy = qm_.model().evaluate_batch(eval_x, eval_y).accuracy;
  result.final_accuracy = result.initial_accuracy;

  // The attacker's offline search is the shared probe engine with the
  // untargeted objective -- the white-box twist is purely in the loop below:
  // proposals are carried through the DRAM substrate, and blocked attempts
  // teach the attacker a skip set.
  attack::UntargetedCeObjective objective;
  attack::ProbeEngine engine(qm_, attack_x, attack_y, objective,
                             {bfa_cfg.candidates_per_layer, bfa_cfg.layers_evaluated});
  quant::BitSkipSet learned_blocked;
  while (result.attempts < max_attempts) {
    // Offline proposal on the attacker's copy (== current synced state).
    auto rec = engine.step(learned_blocked);
    if (!rec.has_value()) break;
    qm_.flip(rec->loc);  // undo the search's commit; DRAM is authoritative
    const attack::FlipAttempt attempt = attack_bit(rec->loc);
    result.attempts += 1;
    if (attempt.success) {
      result.landed += 1;
    } else {
      result.blocked += 1;
      learned_blocked.insert(rec->loc);
    }
    // The DRAM sync above rewrote only the codes that actually changed
    // (set_q no-ops on identical values), so a blocked attempt leaves the
    // forward cache fully clean and this measurement costs almost nothing;
    // the incremental helper falls back to a full pass when the cache sits
    // on the attack batch instead.
    result.final_accuracy = qm_.model().evaluate_batch_incremental(eval_x, eval_y).accuracy;
    if (result.final_accuracy <= stop_accuracy) break;
  }
  return result;
}

}  // namespace dnnd::system
