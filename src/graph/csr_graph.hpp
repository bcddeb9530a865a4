// Compressed sparse row (CSR) graph — the fundamental data structure every
// other GNNavigator subsystem (sampling, caching, training) operates on.
//
// Vertices are dense 0-based NodeId values. The graph is stored as a
// directed adjacency structure; undirected graphs are represented by
// symmetrized edge sets (both directions present), which matches how PyG
// and DGL feed message-passing layers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gnav::graph {

using NodeId = std::int64_t;
using EdgeId = std::int64_t;

/// Immutable CSR adjacency structure.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of validated CSR arrays. `indptr` has num_nodes + 1
  /// monotone entries; `indices[indptr[v] .. indptr[v+1])` are v's
  /// out-neighbors. Throws gnav::Error on malformed input.
  CsrGraph(std::vector<EdgeId> indptr, std::vector<NodeId> indices);

  // Copies are distinct graphs (fresh uid); moves transfer identity and
  // re-identify the hollowed-out source, so a uid never names two live
  // adjacency structures at once.
  CsrGraph(const CsrGraph& other)
      : indptr_(other.indptr_), indices_(other.indices_) {}
  CsrGraph& operator=(const CsrGraph& other) {
    indptr_ = other.indptr_;
    indices_ = other.indices_;
    uid_ = next_uid();
    return *this;
  }
  CsrGraph(CsrGraph&& other) noexcept
      : indptr_(std::move(other.indptr_)),
        indices_(std::move(other.indices_)),
        uid_(other.uid_) {
    other.uid_ = next_uid();
  }
  CsrGraph& operator=(CsrGraph&& other) noexcept {
    indptr_ = std::move(other.indptr_);
    indices_ = std::move(other.indices_);
    uid_ = other.uid_;
    other.uid_ = next_uid();
    return *this;
  }

  /// Process-unique identity of this adjacency structure, assigned at
  /// construction. Per-graph caches key on it (the SAINT sampler's
  /// weighted-draw table), which a raw `this` pointer could not do
  /// safely: allocators recycle addresses across the short-lived
  /// mini-batch subgraphs.
  std::uint64_t uid() const { return uid_; }

  NodeId num_nodes() const {
    return indptr_.empty() ? 0 : static_cast<NodeId>(indptr_.size()) - 1;
  }
  EdgeId num_edges() const { return indptr_.empty() ? 0 : indptr_.back(); }

  /// Out-degree of vertex v.
  EdgeId degree(NodeId v) const { return indptr_[static_cast<std::size_t>(v) + 1] - indptr_[static_cast<std::size_t>(v)]; }

  /// Neighbor list of vertex v as a non-owning view.
  std::span<const NodeId> neighbors(NodeId v) const {
    const auto b = static_cast<std::size_t>(indptr_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(indptr_[static_cast<std::size_t>(v) + 1]);
    return {indices_.data() + b, e - b};
  }

  const std::vector<EdgeId>& indptr() const { return indptr_; }
  const std::vector<NodeId>& indices() const { return indices_; }

  /// Degrees of all vertices (convenience for profiling).
  std::vector<std::size_t> degrees() const;

  /// Average out-degree; 0 for the empty graph.
  double average_degree() const;

  /// True when every edge (u,v) has a reverse edge (v,u). O(E log d).
  bool is_symmetric() const;

  /// True if `v` is a valid vertex id.
  bool contains(NodeId v) const { return v >= 0 && v < num_nodes(); }

 private:
  static std::uint64_t next_uid();

  std::vector<EdgeId> indptr_;
  std::vector<NodeId> indices_;
  std::uint64_t uid_ = next_uid();
};

}  // namespace gnav::graph
