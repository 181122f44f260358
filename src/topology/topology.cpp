#include "topology/topology.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace proxcache {

void Topology::distances(NodeId u, std::span<const NodeId> vs,
                         std::span<Hop> out) const {
  PROXCACHE_REQUIRE(out.size() == vs.size(), "one output slot per target");
  for (std::size_t i = 0; i < vs.size(); ++i) out[i] = distance(u, vs[i]);
}

void Topology::visit_shell(NodeId u, Hop d, NodeVisitor fn) const {
  // Generic fallback: scan all nodes in id order. Correct for any metric;
  // structured topologies override with direct enumeration.
  const std::size_t n = size();
  for (NodeId v = 0; v < n; ++v) {
    if (distance(u, v) == d) fn(v);
  }
}

std::size_t Topology::shell_size(NodeId u, Hop d) const {
  std::size_t count = 0;
  visit_shell(u, d, [&](NodeId) { ++count; });
  return count;
}

std::size_t Topology::ball_size(NodeId u, Hop r) const {
  const Hop cap = std::min<Hop>(r, diameter());
  std::size_t total = 0;
  for (Hop d = 0; d <= cap; ++d) total += shell_size(u, d);
  return total;
}

std::vector<NodeId> Topology::neighbors(NodeId u) const {
  std::vector<NodeId> out;
  visit_shell(u, 1, [&](NodeId v) { out.push_back(v); });
  return out;
}

double Topology::mean_distance_to_random_node(NodeId u) const {
  double total = 0.0;
  for (Hop d = 1; d <= diameter(); ++d) {
    total += static_cast<double>(d) * static_cast<double>(shell_size(u, d));
  }
  return total / static_cast<double>(size());
}

NodeId Topology::central_node() const {
  return static_cast<NodeId>(size() / 2);
}

std::string Topology::node_label(NodeId u) const {
  return std::to_string(u);
}

}  // namespace proxcache
