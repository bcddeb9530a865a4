// Exhaustive scalar-vs-blocked SpMM equivalence for the kernel layer
// (kernels/spmm.hpp). The contract under test is EXACT bitwise equality:
// for every aggregation variant, graph family (including degree-skewed
// power-law graphs, empty rows, and self-loops), feature dim, and thread
// count, the blocked kernel must reproduce the scalar reference to the
// last bit. The golden-trace suite and the estimator corpus rely on this
// invariant — a tolerance here would let nondeterminism creep in there.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "kernels/spmm.hpp"
#include "nn/aggregate.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "tensor/tensor.hpp"

namespace gnav {
namespace {

using kernels::SpmmImpl;
using kernels::SpmmScales;
using tensor::Tensor;

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The aggregation variants as (name, scale-builder) pairs; mirrors how
/// nn/aggregate.cpp instantiates the primitive.
struct Variant {
  const char* name;
  bool src, dst, self;
};
constexpr Variant kVariants[] = {
    {"sum", false, false, false},
    {"mean", false, true, false},
    {"mean_transpose", true, false, false},
    {"gcn", true, true, true},
};

SpmmScales make_scales(const Variant& v, const std::vector<float>& inv_deg,
                       const std::vector<float>& gcn_norm) {
  SpmmScales s;
  if (v.self) {  // gcn: all three scales are the symmetric normalization
    s.src_scale = gcn_norm.data();
    s.dst_scale = gcn_norm.data();
    s.self_scale = gcn_norm.data();
  } else {
    if (v.src) s.src_scale = inv_deg.data();
    if (v.dst) s.dst_scale = inv_deg.data();
  }
  return s;
}

struct NamedGraph {
  std::string name;
  graph::CsrGraph g;
};

std::vector<NamedGraph> test_graphs() {
  std::vector<NamedGraph> out;
  {
    Rng rng(11);
    out.push_back(
        {"power_law_skewed", graph::power_law_configuration(600, 2.05, 2, 80, rng)});
  }
  {
    Rng rng(12);
    out.push_back({"barabasi_albert", graph::barabasi_albert(400, 3, rng)});
  }
  {
    Rng rng(13);
    out.push_back({"erdos_renyi", graph::erdos_renyi(300, 0.02, rng)});
  }
  {
    Rng rng(14);
    out.push_back({"rmat", graph::rmat(9, 8.0, 0.57, 0.19, 0.19, rng)});
  }
  {
    // 30 of 50 vertices isolated: exercises empty-row handling.
    graph::GraphBuilder b(50);
    Rng rng(15);
    for (int e = 0; e < 60; ++e) {
      const auto u = static_cast<graph::NodeId>(rng.uniform_index(20));
      const auto v = static_cast<graph::NodeId>(rng.uniform_index(20));
      if (u != v) b.add_undirected_edge(u, v);
    }
    out.push_back({"mostly_isolated", b.build()});
  }
  {
    // Self-loops kept: u appears in its own neighbor list.
    graph::GraphBuilder b(16);
    for (graph::NodeId v = 0; v < 16; ++v) b.add_edge(v, v);
    for (graph::NodeId v = 0; v + 1 < 16; ++v) b.add_undirected_edge(v, v + 1);
    b.remove_self_loops(false);
    out.push_back({"self_loops", b.build()});
  }
  {
    graph::GraphBuilder b(1);
    out.push_back({"single_node", b.build()});
  }
  return out;
}

TEST(SpmmEquivalence, BlockedMatchesScalarBitwiseEverywhere) {
  support::ThreadPool pool1(1);
  support::ThreadPool pool2(2);
  support::ThreadPool pool8(8);
  support::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  const std::size_t pool_sizes[] = {1, 2, 8};
  // Every SIMD tier of the blocked kernel must reproduce the scalar
  // reference bitwise — this is what makes the CPU's ISA (and the
  // compute-backend choice) invisible to golden traces.
  const support::SimdTier tiers[] = {support::SimdTier::kPortable,
                                     support::SimdTier::kSse,
                                     support::SimdTier::kAuto};

  for (const auto& [gname, g] : test_graphs()) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto inv_deg = nn::inverse_degree_scales(g);
    const auto gcn_norm = nn::gcn_norm_scales(g);
    for (const std::size_t dim : {1u, 7u, 32u, 64u}) {
      Rng rng(17);
      const Tensor x = Tensor::uniform(n, dim, -2.0f, 2.0f, rng);
      for (const Variant& variant : kVariants) {
        const SpmmScales scales = make_scales(variant, inv_deg, gcn_norm);
        Tensor y_scalar(n, dim);
        kernels::spmm(g, x, y_scalar, scales, SpmmImpl::kScalar);
        for (const support::SimdTier tier : tiers) {
          support::set_simd_tier(tier);
          for (std::size_t p = 0; p < 3; ++p) {
            Tensor y_blocked(n, dim);
            kernels::spmm(g, x, y_blocked, scales, SpmmImpl::kBlocked,
                          pools[p]);
            EXPECT_TRUE(bit_identical(y_scalar, y_blocked))
                << gname << " dim=" << dim << " variant=" << variant.name
                << " threads=" << pool_sizes[p]
                << " tier=" << static_cast<int>(tier);
          }
        }
        support::set_simd_tier(support::SimdTier::kAuto);
      }
    }
  }
}

TEST(SpmmEquivalence, AggregateWrappersHonorTheActiveBackend) {
  // The nn wrappers route through compute::current_backend(); every
  // registered backend must reproduce the cpu-scalar reference bitwise
  // for each aggregation kind.
  Rng grng(21);
  const auto g = graph::power_law_configuration(300, 2.2, 2, 60, grng);
  Rng rng(22);
  const Tensor x =
      Tensor::uniform(static_cast<std::size_t>(g.num_nodes()), 24, -1, 1, rng);
  const auto run_all = [&] {
    std::vector<Tensor> out;
    out.push_back(nn::aggregate_sum(g, x));
    out.push_back(nn::aggregate_mean(g, x));
    out.push_back(nn::aggregate_mean_transpose(g, x));
    out.push_back(nn::aggregate_gcn(g, x));
    return out;
  };
  std::vector<Tensor> scalar_out;
  {
    compute::BackendScope scope(compute::kScalarBackendId);
    scalar_out = run_all();
  }
  for (const std::string& id : compute::BackendFactory::registered_ids()) {
    compute::BackendScope scope(id);
    const std::vector<Tensor> out = run_all();
    ASSERT_EQ(scalar_out.size(), out.size());
    for (std::size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_TRUE(bit_identical(scalar_out[i], out[i]))
          << "backend=" << id << " variant=" << i;
    }
  }
}

TEST(SpmmEquivalence, MeanTransposeMatchesExplicitScatter) {
  // The pull-form transpose must equal the textbook scatter
  // dX[u] += dY[v]/deg(v) on symmetric graphs (it shares the CSR).
  Rng grng(31);
  const auto g = graph::barabasi_albert(200, 2, grng);
  Rng rng(32);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const Tensor dy = Tensor::uniform(n, 9, -1, 1, rng);
  Tensor expected(n, 9);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    if (nb.empty()) continue;
    const float inv = 1.0f / static_cast<float>(nb.size());
    const float* dyv = dy.row(static_cast<std::size_t>(v));
    for (graph::NodeId u : nb) {
      float* row = expected.row(static_cast<std::size_t>(u));
      for (std::size_t j = 0; j < 9; ++j) row[j] += inv * dyv[j];
    }
  }
  const Tensor got = nn::aggregate_mean_transpose(g, dy);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-5f) << i;
  }
}

TEST(SpmmKernels, EmptyGraphAndZeroColumns) {
  const graph::CsrGraph empty;
  Tensor x0(0, 4);
  Tensor y0(0, 4);
  kernels::spmm(empty, x0, y0, SpmmScales{}, SpmmImpl::kBlocked);
  EXPECT_EQ(y0.rows(), 0u);
  graph::GraphBuilder b(3);
  const auto g = b.build();
  Tensor xz(3, 0);
  Tensor yz(3, 0);
  kernels::spmm(g, xz, yz, SpmmScales{}, SpmmImpl::kScalar);
  EXPECT_EQ(yz.cols(), 0u);
}

TEST(SpmmKernels, RejectsBadShapesAndAliasing) {
  Rng grng(41);
  const auto g = graph::erdos_renyi(20, 0.2, grng);
  Tensor x(20, 4);
  Tensor bad_rows(19, 4);
  Tensor bad_cols(20, 5);
  EXPECT_THROW(kernels::spmm(g, x, bad_rows, SpmmScales{}, SpmmImpl::kScalar),
               Error);
  EXPECT_THROW(kernels::spmm(g, bad_rows, x, SpmmScales{}, SpmmImpl::kScalar),
               Error);
  EXPECT_THROW(kernels::spmm(g, x, bad_cols, SpmmScales{}, SpmmImpl::kScalar),
               Error);
  EXPECT_THROW(kernels::spmm(g, x, x, SpmmScales{}, SpmmImpl::kScalar), Error);
}

}  // namespace
}  // namespace gnav
