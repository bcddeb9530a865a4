// Unit tests for CSR graphs, builders, induced subgraphs and profiling.
#include <gtest/gtest.h>

#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_stats.hpp"
#include "support/error.hpp"

namespace gnav::graph {
namespace {

CsrGraph triangle_plus_leaf() {
  // 0-1, 1-2, 2-0, 2-3 (undirected).
  return build_undirected(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
}

TEST(CsrGraph, BasicShape) {
  const CsrGraph g = triangle_plus_leaf();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 8);  // symmetrized
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(CsrGraph, NeighborsSortedAscending) {
  const CsrGraph g = triangle_plus_leaf();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 1; i < nb.size(); ++i) {
      EXPECT_LT(nb[i - 1], nb[i]);
    }
  }
}

TEST(CsrGraph, RejectsMalformedInput) {
  EXPECT_THROW(CsrGraph({}, {}), Error);                    // empty indptr
  EXPECT_THROW(CsrGraph({0, 2}, {0}), Error);               // size mismatch
  EXPECT_THROW(CsrGraph({0, 2, 1}, {0, 0}), Error);         // non-monotone
  EXPECT_THROW(CsrGraph({0, 1}, {5}), Error);               // endpoint range
  EXPECT_NO_THROW(CsrGraph({0, 0, 0}, {}));                 // isolated nodes
}

TEST(GraphBuilder, DeduplicatesAndRemovesSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 1);
  b.add_edge(2, 0);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);  // 0->1 once, 2->0; self loop gone
  EXPECT_EQ(g.degree(1), 0);
}

TEST(GraphBuilder, KeepsDuplicatesWhenDisabled) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.deduplicate(false);
  EXPECT_EQ(b.build().num_edges(), 2);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoints) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), Error);
  EXPECT_THROW(b.add_edge(-1, 0), Error);
}

TEST(GraphBuilder, SymmetrizeAddsReverseEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.symmetrize(true);
  const CsrGraph g = b.build();
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.num_edges(), 4);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  const CsrGraph g = triangle_plus_leaf();
  const CsrGraph sub = induced_subgraph(g, {0, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 3);
  // edges among {0,2,3}: 0-2 and 2-3 (symmetrized -> 4 directed).
  EXPECT_EQ(sub.num_edges(), 4);
  EXPECT_TRUE(sub.is_symmetric());
}

TEST(InducedSubgraph, RejectsDuplicatesAndOutOfRange) {
  const CsrGraph g = triangle_plus_leaf();
  EXPECT_THROW(induced_subgraph(g, {0, 0}), Error);
  EXPECT_THROW(induced_subgraph(g, {9}), Error);
}

TEST(GraphProfile, ReportsSkewSignals) {
  // Star graph: hub degree n-1, leaves degree 1 -> high gini & coverage.
  GraphBuilder b(21);
  for (NodeId v = 1; v <= 20; ++v) b.add_undirected_edge(0, v);
  const CsrGraph star = b.build();
  const GraphProfile p = profile_graph(star);
  EXPECT_EQ(p.num_nodes, 21);
  EXPECT_EQ(p.max_degree, 20u);
  EXPECT_GT(p.degree_gini, 0.4);
  // caching 10% of vertices (the hub + one leaf) covers >50% of endpoints
  EXPECT_GT(p.top10_edge_coverage, 0.5);
}

TEST(GraphProfile, UniformGraphHasLowGini) {
  // Ring: all degrees equal -> gini ~0.
  GraphBuilder b(50);
  for (NodeId v = 0; v < 50; ++v) b.add_undirected_edge(v, (v + 1) % 50);
  const GraphProfile p = profile_graph(b.build());
  EXPECT_NEAR(p.degree_gini, 0.0, 1e-9);
}

TEST(DegreeCacheCoverage, MonotoneInRatio) {
  const CsrGraph g = triangle_plus_leaf();
  double prev = 0.0;
  for (double r : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double c = degree_cache_coverage(g, r);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(degree_cache_coverage(g, 1.0), 1.0);
  EXPECT_THROW(degree_cache_coverage(g, 1.5), Error);
}

}  // namespace
}  // namespace gnav::graph
