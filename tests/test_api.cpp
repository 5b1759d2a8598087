// Tests for the stable public facade (api/splace.hpp) and the fluent
// api::Request builder: field mapping onto the engine aggregate structs,
// eager validation (missing snapshot, inapplicable setters, bad values),
// builder reuse, and facade-served results matching direct library calls.
#include "api/splace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

#include "graph/generators.hpp"
#include "placement/greedy.hpp"
#include "util/error.hpp"

namespace splace::api {
namespace {

std::vector<Service> two_services() {
  Service web;
  web.name = "web";
  web.clients = {0, 8};
  web.alpha = 1.0;
  Service dns;
  dns.name = "dns";
  dns.clients = {2, 6};
  dns.alpha = 1.0;
  return {web, dns};
}

struct Fixture {
  std::shared_ptr<SnapshotRegistry> registry =
      std::make_shared<SnapshotRegistry>();
  std::uint64_t hash = 0;

  Fixture() {
    hash = registry->add("grid", grid_graph(3, 3), two_services())->hash();
  }
};

TEST(RequestBuilder, PlaceMapsEveryField) {
  const engine::Request built = Request::place(Algorithm::RD)
                                    .snapshot(7)
                                    .k(3)
                                    .seed(9)
                                    .deadline(250)
                                    .build();
  ASSERT_TRUE(std::holds_alternative<engine::PlaceRequest>(built));
  const auto& place = std::get<engine::PlaceRequest>(built);
  EXPECT_EQ(place.snapshot, 7u);
  EXPECT_EQ(place.algorithm, Algorithm::RD);
  EXPECT_EQ(place.k, 3u);
  EXPECT_EQ(place.seed, 9u);
  EXPECT_DOUBLE_EQ(place.deadline_seconds, 0.25);  // ms -> s conversion
}

TEST(RequestBuilder, PlaceDefaultsMatchAggregateDefaults) {
  const engine::Request built = Request::place().snapshot(1).build();
  const auto& place = std::get<engine::PlaceRequest>(built);
  const engine::PlaceRequest defaults;
  EXPECT_EQ(place.algorithm, defaults.algorithm);
  EXPECT_EQ(place.k, defaults.k);
  EXPECT_EQ(place.seed, defaults.seed);
  EXPECT_DOUBLE_EQ(place.deadline_seconds, defaults.deadline_seconds);
}

TEST(RequestBuilder, EvaluateMapsFields) {
  const Placement placement{4, 2};
  const engine::Request built =
      Request::evaluate(placement).snapshot(5).k(2).deadline(100).build();
  ASSERT_TRUE(std::holds_alternative<engine::EvaluateRequest>(built));
  const auto& eval = std::get<engine::EvaluateRequest>(built);
  EXPECT_EQ(eval.snapshot, 5u);
  EXPECT_EQ(eval.placement, placement);
  EXPECT_EQ(eval.k, 2u);
  EXPECT_DOUBLE_EQ(eval.deadline_seconds, 0.1);
}

TEST(RequestBuilder, LocalizeMapsFields) {
  const Placement placement{4, 2};
  const std::vector<std::uint32_t> failed{1, 3};
  const engine::Request built =
      Request::localize(placement, failed).snapshot(3).k(2).build();
  ASSERT_TRUE(std::holds_alternative<engine::LocalizeRequest>(built));
  const auto& loc = std::get<engine::LocalizeRequest>(built);
  EXPECT_EQ(loc.snapshot, 3u);
  EXPECT_EQ(loc.placement, placement);
  EXPECT_EQ(loc.failed_paths, failed);
  EXPECT_EQ(loc.k, 2u);
}

TEST(RequestBuilder, MutateMapsFields) {
  TopologyDelta delta;
  delta.add_links.push_back(Edge{0, 4});
  const engine::Request built =
      Request::mutate(delta).snapshot(11).deadline(1.5).build();
  ASSERT_TRUE(std::holds_alternative<engine::MutateRequest>(built));
  const auto& mutate = std::get<engine::MutateRequest>(built);
  EXPECT_EQ(mutate.snapshot, 11u);
  ASSERT_EQ(mutate.delta.add_links.size(), 1u);
  EXPECT_EQ(mutate.delta.add_links[0].u, 0u);
  EXPECT_EQ(mutate.delta.add_links[0].v, 4u);
  EXPECT_DOUBLE_EQ(mutate.deadline_seconds, 0.0015);
}

TEST(RequestBuilder, BuildWithoutSnapshotThrows) {
  EXPECT_THROW(Request::place().build(), InvalidInput);
  EXPECT_THROW(Request::evaluate({0, 1}).build(), InvalidInput);
  EXPECT_THROW(Request::localize({0, 1}, {}).build(), InvalidInput);
  EXPECT_THROW(Request::mutate(TopologyDelta{}).build(), InvalidInput);
}

TEST(RequestBuilder, InapplicableSettersThrow) {
  EXPECT_THROW(Request::evaluate({0, 1}).seed(1), InvalidInput);
  EXPECT_THROW(Request::localize({0, 1}, {}).seed(1), InvalidInput);
  EXPECT_THROW(Request::mutate(TopologyDelta{}).seed(1), InvalidInput);
  EXPECT_THROW(Request::mutate(TopologyDelta{}).k(2), InvalidInput);
}

TEST(RequestBuilder, InvalidValuesThrow) {
  EXPECT_THROW(Request::place().k(0), InvalidInput);
  EXPECT_THROW(Request::place().deadline(-1.0), InvalidInput);
  EXPECT_THROW(Request::evaluate({0, 1}).k(0), InvalidInput);
}

TEST(RequestBuilder, BuilderIsReusableAndNotConsumed) {
  const Request builder = Request::place(Algorithm::GD).snapshot(42).k(2);
  const engine::Request first = builder.build();
  const engine::Request second = builder.build();
  EXPECT_EQ(engine::canonical_key(first), engine::canonical_key(second));
}

TEST(Facade, EngineServedPlaceMatchesDirectCall) {
  Fixture fx;
  EngineConfig config;
  config.threads = 2;
  Engine engine(fx.registry, config);

  const EngineResult served =
      engine
          .submit(Request::place(Algorithm::GD)
                      .snapshot(fx.hash)
                      .k(1)
                      .deadline(5000)
                      .build())
          .get();
  ASSERT_EQ(served.outcome, Outcome::Ok);

  const ProblemInstance instance(grid_graph(3, 3), two_services());
  const GreedyResult direct =
      greedy_placement(instance, ObjectiveKind::Distinguishability);
  EXPECT_EQ(served.place.placement, direct.placement);
  EXPECT_DOUBLE_EQ(served.place.objective_value, direct.objective_value);
}

TEST(Facade, AggregateStructsKeepWorking) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{});

  engine::PlaceRequest aggregate;
  aggregate.snapshot = fx.hash;
  aggregate.algorithm = Algorithm::GD;
  aggregate.k = 1;
  const EngineResult from_aggregate =
      engine.submit(engine::Request{aggregate}).get();
  const EngineResult from_builder =
      engine
          .submit(Request::place(Algorithm::GD).snapshot(fx.hash).k(1).build())
          .get();
  ASSERT_EQ(from_aggregate.outcome, Outcome::Ok);
  ASSERT_EQ(from_builder.outcome, Outcome::Ok);
  EXPECT_EQ(from_aggregate.place.placement, from_builder.place.placement);
}

TEST(Facade, BuiltMutateDerivesSnapshot) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{});

  TopologyDelta delta;
  delta.add_links.push_back(Edge{0, 4});
  const EngineResult derived =
      engine.submit(Request::mutate(delta).snapshot(fx.hash).build()).get();
  ASSERT_EQ(derived.outcome, Outcome::Ok);
  EXPECT_NE(derived.mutate.derived_snapshot, 0u);
  EXPECT_NE(derived.mutate.derived_snapshot, fx.hash);
  EXPECT_NE(fx.registry->find(derived.mutate.derived_snapshot), nullptr);
}

}  // namespace
}  // namespace splace::api
