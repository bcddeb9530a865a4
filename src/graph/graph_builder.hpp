// COO -> CSR construction with deduplication, self-loop control, and
// optional symmetrization. Neighbor lists in the produced CSR are sorted
// ascending (several consumers — symmetry check, induced-subgraph
// extraction — rely on this).
#pragma once

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"

namespace gnav::graph {

struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
};

class GraphBuilder {
 public:
  /// `num_nodes` fixes the vertex id space [0, num_nodes).
  explicit GraphBuilder(NodeId num_nodes);

  /// Appends a directed edge. Throws if an endpoint is out of range.
  void add_edge(NodeId src, NodeId dst);

  /// Appends both (src,dst) and (dst,src).
  void add_undirected_edge(NodeId src, NodeId dst);

  NodeId num_nodes() const { return num_nodes_; }

  /// Options applied at finalization.
  GraphBuilder& remove_self_loops(bool enabled);
  GraphBuilder& deduplicate(bool enabled);
  GraphBuilder& symmetrize(bool enabled);

  /// Builds the CSR graph. The builder may be reused afterwards.
  CsrGraph build() const;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
  bool remove_self_loops_ = true;
  bool deduplicate_ = true;
  bool symmetrize_ = false;
};

/// Convenience: build a symmetrized, deduplicated simple graph from an
/// edge list.
CsrGraph build_undirected(NodeId num_nodes, const std::vector<Edge>& edges);

/// Extracts the subgraph induced by `nodes` (global ids). Returns the CSR
/// over local ids 0..nodes.size()-1 where local i corresponds to nodes[i].
/// Duplicate ids in `nodes` are rejected.
CsrGraph induced_subgraph(const CsrGraph& g, const std::vector<NodeId>& nodes);

}  // namespace gnav::graph
