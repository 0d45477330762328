#include "crn/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "sbml/validate.h"
#include "util/errors.h"

namespace glva::crn {

ReactionNetwork ReactionNetwork::compile(const sbml::Model& model) {
  sbml::validate_or_throw(model);

  ReactionNetwork net;

  // Species occupy the leading value slots.
  std::map<std::string, std::size_t> slot_of;
  for (const auto& s : model.species) {
    slot_of[s.id] = net.species_names_.size();
    net.species_names_.push_back(s.id);
    net.initial_amounts_.push_back(std::round(s.initial_amount));
    net.boundary_.push_back(s.boundary_condition || s.constant);
  }

  // Globals (parameters and compartment sizes) follow as constant slots.
  const auto add_constant = [&](const std::string& id, double value) {
    slot_of[id] = net.species_names_.size() + net.constants_.size();
    net.constants_.push_back(value);
  };
  for (const auto& p : model.parameters) add_constant(p.id, p.value);
  for (const auto& c : model.compartments) add_constant(c.id, c.size);

  // Reactions: local parameters get mangled constant slots visible only to
  // their own kinetic law via a per-reaction symbol table.
  for (const auto& r : model.reactions) {
    std::map<std::string, std::size_t> local_slots;
    for (const auto& lp : r.kinetic_law.local_parameters) {
      const std::string mangled = r.id + "::" + lp.id;
      add_constant(mangled, lp.value);
      local_slots[lp.id] = slot_of.at(mangled);
    }

    const auto symbol_index = [&](const std::string& name) -> std::size_t {
      if (const auto it = local_slots.find(name); it != local_slots.end()) {
        return it->second;
      }
      if (const auto it = slot_of.find(name); it != slot_of.end()) {
        return it->second;
      }
      throw ValidationError("reaction '" + r.id +
                            "': kinetic law symbol '" + name +
                            "' does not resolve");
    };

    CompiledReaction cr;
    cr.id = r.id;
    cr.propensity = math::CompiledExpr(*r.kinetic_law.math, symbol_index);

    // Net stoichiometry (reactants negative, products positive), folding
    // duplicate references and dropping boundary species.
    std::map<std::size_t, double> delta;
    for (const auto& ref : r.reactants) {
      delta[slot_of.at(ref.species)] -= ref.stoichiometry;
    }
    for (const auto& ref : r.products) {
      delta[slot_of.at(ref.species)] += ref.stoichiometry;
    }
    for (const auto& [species, d] : delta) {
      if (d == 0.0) continue;
      if (net.boundary_[species]) continue;  // clamped externally
      cr.changes.push_back(StateChange{species, d});
    }
    // Requirements: gross reactant stoichiometry (before product folding),
    // so A + B -> A + C still requires one A.
    std::map<std::size_t, double> required;
    for (const auto& ref : r.reactants) {
      required[slot_of.at(ref.species)] += ref.stoichiometry;
    }
    for (const auto& [species, count] : required) {
      cr.requirements.push_back(StateChange{species, count});
    }

    // Propensity dependencies restricted to mutable (species) slots.
    for (std::size_t dep : cr.propensity.dependencies()) {
      if (dep < net.species_names_.size()) cr.depends_on.push_back(dep);
    }
    // Requirements also gate applicability, so reactant counts matter even
    // when the law does not read them.
    for (const auto& req : cr.requirements) {
      cr.depends_on.push_back(req.species);
    }
    std::sort(cr.depends_on.begin(), cr.depends_on.end());
    cr.depends_on.erase(std::unique(cr.depends_on.begin(), cr.depends_on.end()),
                        cr.depends_on.end());

    net.reactions_.push_back(std::move(cr));
  }

  // Dependency graph: reaction r affects reaction s iff r changes a species
  // s's propensity (or applicability) depends on.
  std::vector<std::vector<std::size_t>> readers(net.species_count());
  for (std::size_t s = 0; s < net.reactions_.size(); ++s) {
    for (std::size_t dep : net.reactions_[s].depends_on) {
      readers[dep].push_back(s);
    }
  }
  net.affects_.resize(net.reactions_.size());
  for (std::size_t r = 0; r < net.reactions_.size(); ++r) {
    std::set<std::size_t> affected;
    for (const auto& change : net.reactions_[r].changes) {
      for (std::size_t s : readers[change.species]) affected.insert(s);
    }
    net.affects_[r].assign(affected.begin(), affected.end());
  }

  return net;
}

std::size_t ReactionNetwork::species_index(const std::string& id) const {
  for (std::size_t i = 0; i < species_names_.size(); ++i) {
    if (species_names_[i] == id) return i;
  }
  throw InvalidArgument("unknown species: " + id);
}

std::vector<std::size_t> ReactionNetwork::reactions_reading(
    std::size_t species) const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < reactions_.size(); ++r) {
    const auto& deps = reactions_[r].depends_on;
    if (std::binary_search(deps.begin(), deps.end(), species)) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<double> ReactionNetwork::initial_values() const {
  std::vector<double> values;
  values.reserve(initial_amounts_.size() + constants_.size());
  values.insert(values.end(), initial_amounts_.begin(), initial_amounts_.end());
  values.insert(values.end(), constants_.begin(), constants_.end());
  return values;
}

double ReactionNetwork::propensity(std::size_t r,
                                   const std::vector<double>& values) const {
  const CompiledReaction& reaction = reactions_[r];
  for (const auto& req : reaction.requirements) {
    if (values[req.species] < req.delta) return 0.0;
  }
  const double a = reaction.propensity.evaluate(values);
  // One test for negatives, NaN and +inf: an infinite propensity would
  // draw zero waiting times forever.
  if (!(a >= 0.0 && a < std::numeric_limits<double>::infinity())) {
    throw SimulationError("reaction '" + reaction.id +
                          "' produced an invalid propensity " +
                          std::to_string(a));
  }
  return a;
}

void ReactionNetwork::fire(std::size_t r,
                           std::vector<double>& values) const noexcept {
  for (const auto& change : reactions_[r].changes) {
    values[change.species] += change.delta;
    // Kinetic laws evaluated on whole molecules can never push a species
    // negative when requirements are enforced, but guard against model
    // authors writing laws that fire below their own requirements.
    if (values[change.species] < 0.0) values[change.species] = 0.0;
  }
}

}  // namespace glva::crn
