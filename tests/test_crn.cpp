// Unit tests for glva_crn: network compilation, propensities, stoichiometry,
// dependency graphs.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "circuits/circuit_repository.h"
#include "crn/network.h"
#include "sbml/model.h"
#include "sim/virtual_lab.h"
#include "util/errors.h"

namespace {

using namespace glva;
using crn::ReactionNetwork;

sbml::Model birth_death() {
  sbml::Model m;
  m.id = "bd";
  m.add_compartment("cell");
  m.add_species("X", 5.0);
  m.add_parameter("kb", 2.0);
  m.add_parameter("kd", 0.1);
  m.add_reaction("birth", {}, {{"X", 1.0}}, "kb");
  m.add_reaction("death", {{"X", 1.0}}, {}, "kd * X");
  return m;
}

TEST(Network, CompilesSpeciesAndConstants) {
  const auto net = ReactionNetwork::compile(birth_death());
  EXPECT_EQ(net.species_count(), 1u);
  EXPECT_EQ(net.reaction_count(), 2u);
  EXPECT_EQ(net.species_index("X"), 0u);
  EXPECT_THROW((void)net.species_index("Y"), InvalidArgument);

  const auto values = net.initial_values();
  ASSERT_GE(values.size(), 3u);  // X + kb + kd (+ compartment)
  EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(Network, PropensitiesEvaluateKineticLaws) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 2.0);        // kb
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 0.1 * 5.0);  // kd * X
}

TEST(Network, FireAppliesStoichiometry) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[0], 6.0);
  net.fire(1, values);
  EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(Network, RequirementsGateApplicability) {
  const auto net = ReactionNetwork::compile(birth_death());
  auto values = net.initial_values();
  values[0] = 0.0;
  // Death requires one X even though its law (kd * X = 0 anyway) is benign;
  // requirements make that a hard guarantee.
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 0.0);
}

TEST(Network, CatalystOnlyReactantsStillRequired) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("E", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("k", 3.0);
  // E -> E + P: enzyme preserved, constant law. Without E present the
  // reaction must not fire.
  m.add_reaction("cat", {{"E", 1.0}}, {{"E", 1.0}, {"P", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 0.0);
  values[net.species_index("E")] = 1.0;
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 3.0);
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[net.species_index("E")], 1.0);  // net zero on E
  EXPECT_DOUBLE_EQ(values[net.species_index("P")], 1.0);
}

TEST(Network, BoundarySpeciesAreNotMutatedByReactions) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("In", 15.0, /*boundary=*/true);
  m.add_species("Out", 0.0);
  m.add_parameter("k", 1.0);
  // A reaction that formally consumes In: SBML boundary semantics say the
  // species amount is not updated by reactions.
  m.add_reaction("use", {{"In", 1.0}}, {{"Out", 1.0}}, "k * In");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[net.species_index("In")], 15.0);
  EXPECT_DOUBLE_EQ(values[net.species_index("Out")], 1.0);
  EXPECT_TRUE(net.is_boundary(net.species_index("In")));
  EXPECT_FALSE(net.is_boundary(net.species_index("Out")));
}

TEST(Network, NegativePropensityThrows) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 1.0);
  m.add_parameter("k", -1.0);
  m.add_reaction("bad", {}, {{"X", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  const auto values = net.initial_values();
  EXPECT_THROW((void)net.propensity(0, values), SimulationError);
}

TEST(Network, InfinitePropensityThrows) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("S", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("k", 1.0);
  m.add_reaction("inverse", {}, {{"P", 1.0}}, "k / S",
                 {sbml::ModifierReference{"S"}});
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  try {
    (void)net.propensity(0, values);
    ADD_FAILURE() << "k / 0 must not pass as a propensity";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("inverse"), std::string::npos);
  }
  values[net.species_index("S")] = 4.0;
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 0.25);
}

TEST(Network, PropensitiesEvaluateConcurrently) {
  // One compiled network shared by several simulation threads: evaluate
  // must not touch shared scratch state.
  const auto spec = circuits::CircuitRepository::build("0x17");
  sim::VirtualLab lab(spec.model);
  lab.declare_inputs(spec.input_ids);
  const ReactionNetwork& net = lab.network();
  const auto state = [&](int seed) {
    auto values = net.initial_values();
    for (std::size_t s = 0; s < net.species_count(); ++s) {
      const int count = (seed * 7 + static_cast<int>(s) * 3) % 40;
      values[s] = static_cast<double>(count);
    }
    return values;
  };
  constexpr int kStates = 64;
  std::vector<std::vector<double>> expected(kStates);
  for (int seed = 0; seed < kStates; ++seed) {
    const auto values = state(seed);
    for (std::size_t r = 0; r < net.reaction_count(); ++r) {
      expected[seed].push_back(net.propensity(r, values));
    }
  }

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const int seed = (round + t * 17) % kStates;
        const auto values = state(seed);
        for (std::size_t r = 0; r < net.reaction_count(); ++r) {
          if (net.propensity(r, values) != expected[seed][r]) ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Network, DependencyGraphLinksWritersToReaders) {
  const auto net = ReactionNetwork::compile(birth_death());
  // birth changes X; death's law reads X -> birth affects death. birth's
  // law is constant -> birth does not affect itself.
  const auto& affected_by_birth = net.affected_reactions(0);
  EXPECT_EQ(affected_by_birth, (std::vector<std::size_t>{1}));
  // death changes X; death reads X -> self-affecting.
  const auto& affected_by_death = net.affected_reactions(1);
  EXPECT_EQ(affected_by_death, (std::vector<std::size_t>{1}));
}

TEST(Network, ModifierDependenciesCountAsReads) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("R", 0.0);
  m.add_species("P", 0.0);
  m.add_parameter("b", 1.0);
  m.add_reaction("makeR", {}, {{"R", 1.0}}, "b");
  m.add_reaction("makeP", {}, {{"P", 1.0}}, "b * (1 - hill(R, 8, 2))",
                 {sbml::ModifierReference{"R"}});
  const auto net = ReactionNetwork::compile(m);
  const auto& affected = net.affected_reactions(0);  // makeR changes R
  EXPECT_EQ(affected, (std::vector<std::size_t>{1}));
  EXPECT_EQ(net.reactions_reading(net.species_index("R")),
            (std::vector<std::size_t>{1}));
}

TEST(Network, LocalParametersGetPrivateSlots) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 0.0);
  sbml::Reaction& r1 = m.add_reaction("r1", {}, {{"X", 1.0}}, "rate");
  r1.kinetic_law.local_parameters.push_back({"rate", 2.0, true});
  sbml::Reaction& r2 = m.add_reaction("r2", {}, {{"X", 1.0}}, "rate");
  r2.kinetic_law.local_parameters.push_back({"rate", 5.0, true});
  const auto net = ReactionNetwork::compile(m);
  const auto values = net.initial_values();
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 2.0);
  EXPECT_DOUBLE_EQ(net.propensity(1, values), 5.0);
}

TEST(Network, DuplicateSpeciesReferencesFold) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 10.0);
  m.add_parameter("k", 1.0);
  // X listed twice as reactant: requires 2, removes 2.
  m.add_reaction("dimerize", {{"X", 1.0}, {"X", 1.0}}, {}, "k * X * (X - 1)");
  const auto net = ReactionNetwork::compile(m);
  auto values = net.initial_values();
  net.fire(0, values);
  EXPECT_DOUBLE_EQ(values[0], 8.0);
  values[0] = 1.0;
  EXPECT_DOUBLE_EQ(net.propensity(0, values), 0.0);  // needs two molecules
}

TEST(Network, CompileRejectsInvalidModels) {
  sbml::Model m;  // no compartment
  EXPECT_THROW((void)ReactionNetwork::compile(m), ValidationError);
}

TEST(Network, FractionalInitialAmountsRound) {
  sbml::Model m;
  m.add_compartment("cell");
  m.add_species("X", 2.6);
  m.add_parameter("k", 1.0);
  m.add_reaction("r", {}, {{"X", 1.0}}, "k");
  const auto net = ReactionNetwork::compile(m);
  EXPECT_DOUBLE_EQ(net.initial_values()[0], 3.0);
}

}  // namespace
