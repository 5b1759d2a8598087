#include "api/request_builder.hpp"

#include <type_traits>
#include <utility>
#include <variant>

#include "placement/algorithm.hpp"
#include "util/error.hpp"

namespace splace::api {

Request::Request(engine::Request request) : request_(std::move(request)) {}

Request Request::place(Algorithm algorithm) {
  engine::PlaceRequest request;
  request.algorithm = algorithm;
  return Request(engine::Request{std::move(request)});
}

Request Request::evaluate(Placement placement) {
  engine::EvaluateRequest request;
  request.placement = std::move(placement);
  return Request(engine::Request{std::move(request)});
}

Request Request::localize(Placement placement,
                          std::vector<std::uint32_t> failed_paths) {
  engine::LocalizeRequest request;
  request.placement = std::move(placement);
  request.failed_paths = std::move(failed_paths);
  return Request(engine::Request{std::move(request)});
}

Request Request::mutate(TopologyDelta delta) {
  engine::MutateRequest request;
  request.delta = std::move(delta);
  return Request(engine::Request{std::move(request)});
}

namespace {

/// Eager registry validation shared by portfolio() and algorithm(): throws
/// InvalidInput listing every registered name on a miss.
void require_registered(const std::string& name) {
  if (!is_registered_algorithm(name))
    (void)make_algorithm(name);  // throws with the known-names list
}

}  // namespace

Request Request::portfolio(std::vector<std::string> algorithms) {
  for (const std::string& name : algorithms) require_registered(name);
  engine::PortfolioRequest request;
  request.algorithms = std::move(algorithms);
  return Request(engine::Request{std::move(request)});
}

Request& Request::snapshot(std::uint64_t content_hash) {
  std::visit([&](auto& request) { request.snapshot = content_hash; },
             request_);
  snapshot_set_ = true;
  return *this;
}

Request& Request::k(std::size_t failure_bound) {
  if (failure_bound < 1)
    throw InvalidInput("Request::k: failure bound must be >= 1");
  std::visit(
      [&](auto& request) {
        using T = std::decay_t<decltype(request)>;
        if constexpr (std::is_same_v<T, engine::MutateRequest>)
          throw InvalidInput("Request::k does not apply to mutate requests");
        else
          request.k = failure_bound;
      },
      request_);
  return *this;
}

Request& Request::deadline(double milliseconds) {
  if (milliseconds < 0)
    throw InvalidInput("Request::deadline: milliseconds must be >= 0");
  std::visit(
      [&](auto& request) { request.deadline_seconds = milliseconds / 1000.0; },
      request_);
  return *this;
}

Request& Request::seed(std::uint64_t rng_seed) {
  std::visit(
      [&](auto& request) {
        using T = std::decay_t<decltype(request)>;
        if constexpr (std::is_same_v<T, engine::PlaceRequest> ||
                      std::is_same_v<T, engine::PortfolioRequest>)
          request.seed = rng_seed;
        else
          throw InvalidInput(
              "Request::seed applies only to place and portfolio requests");
      },
      request_);
  return *this;
}

Request& Request::algorithm(std::string name) {
  require_registered(name);
  std::visit(
      [&](auto& request) {
        using T = std::decay_t<decltype(request)>;
        if constexpr (std::is_same_v<T, engine::PlaceRequest>)
          request.algorithm_name = std::move(name);
        else if constexpr (std::is_same_v<T, engine::PortfolioRequest>)
          request.algorithms.push_back(std::move(name));
        else
          throw InvalidInput(
              "Request::algorithm applies only to place and portfolio "
              "requests");
      },
      request_);
  return *this;
}

Request& Request::objective(ObjectiveKind kind) {
  std::visit(
      [&](auto& request) {
        using T = std::decay_t<decltype(request)>;
        if constexpr (std::is_same_v<T, engine::PlaceRequest> ||
                      std::is_same_v<T, engine::PortfolioRequest>)
          request.objective = kind;
        else
          throw InvalidInput(
              "Request::objective applies only to place and portfolio "
              "requests");
      },
      request_);
  return *this;
}

Request& Request::tenant(std::string tenant_id) {
  std::visit(
      [&](auto& request) { request.tenant = std::move(tenant_id); },
      request_);
  return *this;
}

engine::Request Request::build() const {
  if (!snapshot_set_)
    throw InvalidInput(
        "Request::build: no snapshot set — call .snapshot(hash) first");
  return request_;
}

}  // namespace splace::api
