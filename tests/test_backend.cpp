// Conformance and contract tests for the pluggable compute-backend layer
// (compute/backend.hpp):
//
//   - factory: built-in registration, unknown-id diagnostics, singleton
//     instances, custom registration;
//   - capabilities: an instance resolves the host's SIMD dispatch;
//   - SpMM conformance: every registered backend reproduces the
//     cpu-scalar reference BITWISE on every graph family (empty rows,
//     self-loops, power-law skew), feature dim, and thread count — the
//     invariant the backend-keyed golden traces stand on;
//   - BackendScope: thread-local nesting and restoration, and a thread
//     with no scope resolving to cpu-blocked;
//   - DeviceAllocator accounting and DeviceCache device storage (slots,
//     admission order, static preload);
//   - end-to-end: cpu-blocked and cpu-scalar produce bit-identical
//     TrainReports at pool sizes {1, 2, 8}.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cache/device_cache.hpp"
#include "compute/backend.hpp"
#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "hw/platform.hpp"
#include "kernels/spmm.hpp"
#include "runtime/backend.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "tensor/tensor.hpp"

namespace gnav {
namespace {

using tensor::Tensor;

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------- factory

TEST(BackendFactory, BuiltInsAreRegisteredInOrder) {
  const std::vector<std::string> ids =
      compute::BackendFactory::registered_ids();
  EXPECT_EQ(ids, (std::vector<std::string>{compute::kScalarBackendId,
                                           compute::kBlockedBackendId}));
  for (const std::string& id : ids) {
    EXPECT_TRUE(compute::BackendFactory::is_registered(id));
    EXPECT_EQ(compute::BackendFactory::create(id)->id(), id);
  }
  EXPECT_FALSE(compute::BackendFactory::is_registered("gpu-imaginary"));
}

TEST(BackendFactory, UnknownIdThrowsListingRegisteredIds) {
  try {
    compute::BackendFactory::create("gpu-imaginary");
    FAIL() << "expected gnav::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu-imaginary"), std::string::npos);
    EXPECT_NE(what.find(compute::kScalarBackendId), std::string::npos);
    EXPECT_NE(what.find(compute::kBlockedBackendId), std::string::npos);
  }
}

TEST(BackendFactory, InstancesAreProcessWideSingletons) {
  const auto a = compute::BackendFactory::create(compute::kBlockedBackendId);
  const auto b = compute::BackendFactory::create(compute::kBlockedBackendId);
  EXPECT_EQ(a.get(), b.get());
  // One allocator owner per backend regardless of how many runs share it.
  EXPECT_EQ(&a->allocator(), &b->allocator());
}

// -------------------------------------------------------- capabilities

TEST(BackendCapabilities, InstanceResolvesHostSimdTier) {
  const auto scalar =
      compute::BackendFactory::create(compute::kScalarBackendId);
  EXPECT_EQ(scalar->capabilities().simd_tier, "portable");
  const auto blocked =
      compute::BackendFactory::create(compute::kBlockedBackendId);
  const std::string tier = blocked->capabilities().simd_tier;
  EXPECT_TRUE(tier == "avx2" || tier == "sse2" || tier == "portable")
      << tier;
  EXPECT_EQ(tier, support::active_simd_isa());
}

// --------------------------------------------------------- BackendScope

TEST(BackendScope, NestsAndRestoresPerThread) {
  // No scope on this thread: the one fallback is cpu-blocked.
  EXPECT_EQ(compute::current_backend().id(), compute::kBlockedBackendId);
  {
    compute::BackendScope outer(compute::kScalarBackendId);
    EXPECT_EQ(compute::current_backend().id(), compute::kScalarBackendId);
    // The pin is thread-local: a fresh thread has no scope and resolves
    // to cpu-blocked while this thread is pinned to cpu-scalar.
    std::string fresh_thread_id;
    std::thread([&] { fresh_thread_id = compute::current_backend().id(); })
        .join();
    EXPECT_EQ(fresh_thread_id, compute::kBlockedBackendId);
    {
      compute::BackendScope inner(compute::kBlockedBackendId);
      EXPECT_EQ(compute::current_backend().id(), compute::kBlockedBackendId);
    }
    EXPECT_EQ(compute::current_backend().id(), compute::kScalarBackendId);
  }
  EXPECT_EQ(compute::current_backend().id(), compute::kBlockedBackendId);
}

// ---------------------------------------------------- SpMM conformance

struct NamedGraph {
  std::string name;
  graph::CsrGraph g;
};

std::vector<NamedGraph> conformance_graphs() {
  std::vector<NamedGraph> out;
  {
    Rng rng(11);
    out.push_back({"power_law",
                   graph::power_law_configuration(400, 2.1, 2, 80, rng)});
  }
  {
    // Hub-and-isolates: empty rows next to a dense one.
    graph::GraphBuilder b(24);
    for (graph::NodeId v = 1; v < 12; ++v) b.add_undirected_edge(0, v);
    out.push_back({"empty_rows", b.build()});
  }
  {
    graph::GraphBuilder b(16);
    for (graph::NodeId v = 0; v < 16; ++v) b.add_edge(v, v);
    for (graph::NodeId v = 0; v + 1 < 16; ++v) b.add_undirected_edge(v, v + 1);
    b.remove_self_loops(false);
    out.push_back({"self_loops", b.build()});
  }
  return out;
}

TEST(BackendConformance, EveryBackendMatchesScalarReferenceBitwise) {
  support::ThreadPool pool1(1);
  support::ThreadPool pool2(2);
  support::ThreadPool pool8(8);
  support::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  const std::size_t pool_sizes[] = {1, 2, 8};

  for (const auto& [gname, g] : conformance_graphs()) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    const auto inv_deg = compute::inverse_degree_scales(g);
    const auto gcn_norm = compute::gcn_norm_scales(g);
    const kernels::SpmmScales variants[] = {
        kernels::SpmmScales{},  // sum
        compute::mean_spmm_scales(inv_deg.data()),
        compute::mean_transpose_spmm_scales(inv_deg.data()),
        compute::gcn_spmm_scales(gcn_norm.data()),
    };
    for (const std::size_t dim : {1u, 7u, 64u}) {
      Rng rng(17);
      const Tensor x = Tensor::uniform(n, dim, -2.0f, 2.0f, rng);
      for (std::size_t v = 0; v < 4; ++v) {
        Tensor y_ref(n, dim);
        kernels::spmm(g, x, y_ref, variants[v], kernels::SpmmImpl::kScalar);
        for (const std::string& id :
             compute::BackendFactory::registered_ids()) {
          const auto backend = compute::BackendFactory::create(id);
          for (std::size_t p = 0; p < 3; ++p) {
            Tensor y(n, dim);
            backend->spmm(g, x, y, variants[v], pools[p]);
            EXPECT_TRUE(bit_identical(y_ref, y))
                << gname << " backend=" << id << " dim=" << dim
                << " variant=" << v << " threads=" << pool_sizes[p];
          }
        }
      }
    }
  }
}

// ------------------------------------------------- custom registration

class EchoBackend final : public compute::ComputeBackend {
 public:
  const std::string& id() const override {
    static const std::string kId = "test-echo";
    return kId;
  }
  compute::BackendCapabilities capabilities() const override { return {}; }
  compute::DeviceAllocator& allocator() const override {
    return compute::BackendFactory::create(compute::kScalarBackendId)
        ->allocator();
  }
  using compute::ComputeBackend::spmm;
  void spmm(const graph::CsrGraph& g, const Tensor& x, Tensor& y,
            const kernels::SpmmScales& scales,
            support::ThreadPool* pool = nullptr) const override {
    kernels::spmm(g, x, y, scales, kernels::SpmmImpl::kScalar, pool);
  }
};

std::shared_ptr<compute::ComputeBackend> make_echo_backend() {
  return std::make_shared<EchoBackend>();
}

TEST(BackendRegistration, CustomBackendRegistersAndResolves) {
  compute::BackendFactory::register_backend("test-echo", &make_echo_backend);
  EXPECT_TRUE(compute::BackendFactory::is_registered("test-echo"));
  const auto backend = compute::BackendFactory::create("test-echo");
  EXPECT_EQ(backend->id(), "test-echo");
  // Duplicate ids are a registration bug, not a silent overwrite.
  EXPECT_THROW(compute::BackendFactory::register_backend("test-echo",
                                                         &make_echo_backend),
               Error);
  // The custom backend is a first-class citizen: scoping to it routes
  // the nn wrappers through its spmm.
  Rng grng(3);
  const auto g = graph::barabasi_albert(100, 2, grng);
  Rng rng(4);
  const Tensor x =
      Tensor::uniform(static_cast<std::size_t>(g.num_nodes()), 8, -1, 1, rng);
  compute::BackendScope scope("test-echo");
  const Tensor via_scope = compute::current_backend().spmm(
      g, x, kernels::SpmmScales{});
  Tensor y_ref(x.rows(), x.cols());
  kernels::spmm(g, x, y_ref, kernels::SpmmScales{},
                kernels::SpmmImpl::kScalar);
  EXPECT_TRUE(bit_identical(y_ref, via_scope));
}

// A backend that resolves its delegate AT CREATION TIME — the creator
// itself re-enters BackendFactory::create. Under the pre-fix factory the
// creator ran while the registry mutex was held, so this exact shape
// self-deadlocked (the lock-held-reentry class gnav_analyzer flags);
// the factory now runs creators outside the lock with a first-wins
// install.
class DelegatingCreatorBackend final : public compute::ComputeBackend {
 public:
  explicit DelegatingCreatorBackend(
      std::shared_ptr<const compute::ComputeBackend> delegate)
      : delegate_(std::move(delegate)) {}
  const std::string& id() const override {
    static const std::string kId = "test-delegating-creator";
    return kId;
  }
  compute::BackendCapabilities capabilities() const override {
    return delegate_->capabilities();
  }
  compute::DeviceAllocator& allocator() const override {
    return delegate_->allocator();
  }
  using compute::ComputeBackend::spmm;
  void spmm(const graph::CsrGraph& g, const Tensor& x, Tensor& y,
            const kernels::SpmmScales& scales,
            support::ThreadPool* pool = nullptr) const override {
    delegate_->spmm(g, x, y, scales, pool);
  }

 private:
  std::shared_ptr<const compute::ComputeBackend> delegate_;
};

std::shared_ptr<compute::ComputeBackend> make_delegating_creator_backend() {
  return std::make_shared<DelegatingCreatorBackend>(
      compute::BackendFactory::create(compute::kScalarBackendId));
}

TEST(BackendRegistration, CreatorMayReenterFactoryWithoutDeadlock) {
  compute::BackendFactory::register_backend("test-delegating-creator",
                                            &make_delegating_creator_backend);
  const auto backend =
      compute::BackendFactory::create("test-delegating-creator");
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->id(), "test-delegating-creator");
  // Still a process-wide singleton after the outside-the-lock rebuild.
  EXPECT_EQ(backend.get(),
            compute::BackendFactory::create("test-delegating-creator").get());
  // And it behaves: bitwise-identical to its scalar delegate.
  Rng grng(11);
  const auto g = graph::barabasi_albert(80, 2, grng);
  Rng rng(12);
  const Tensor x =
      Tensor::uniform(static_cast<std::size_t>(g.num_nodes()), 8, -1, 1, rng);
  Tensor y(x.rows(), x.cols());
  backend->spmm(g, x, y, kernels::SpmmScales{});
  Tensor y_ref(x.rows(), x.cols());
  kernels::spmm(g, x, y_ref, kernels::SpmmScales{}, kernels::SpmmImpl::kScalar);
  EXPECT_TRUE(bit_identical(y_ref, y));
}

// ------------------------------------------------- allocator accounting

TEST(DeviceAllocator, TracksInUseAndPeakBytes) {
  for (const std::string& id : {std::string(compute::kScalarBackendId),
                                std::string(compute::kBlockedBackendId)}) {
    SCOPED_TRACE(id);
    compute::DeviceAllocator& alloc =
        compute::BackendFactory::create(id)->allocator();
    const std::size_t base_in_use = alloc.bytes_in_use();
    float* a = alloc.allocate_floats(1024);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(alloc.bytes_in_use(), base_in_use + 1024 * sizeof(float));
    EXPECT_GE(alloc.peak_bytes(), base_in_use + 1024 * sizeof(float));
    float* b = alloc.allocate_floats(2048);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(alloc.bytes_in_use(),
              base_in_use + (1024 + 2048) * sizeof(float));
    // The slab is real writable memory.
    a[0] = 1.0f;
    a[1023] = 2.0f;
    b[2047] = 3.0f;
    alloc.deallocate_floats(b, 2048);
    alloc.deallocate_floats(a, 1024);
    EXPECT_EQ(alloc.bytes_in_use(), base_in_use);
    EXPECT_GE(alloc.peak_bytes(),
              base_in_use + (1024 + 2048) * sizeof(float));
  }
}

// --------------------------------------------- DeviceCache real storage

TEST(DeviceCacheStorage, StaticPreloadGetsSlotsAndAdmissionsRecycle) {
  Rng grng(5);
  const auto g = graph::power_law_configuration(64, 2.2, 2, 20, grng);
  cache::DeviceCache cache(cache::CachePolicy::kLru, 4, g);
  compute::DeviceAllocator& alloc =
      compute::BackendFactory::create(compute::kBlockedBackendId)
          ->allocator();
  const std::size_t before = alloc.bytes_in_use();

  EXPECT_FALSE(cache.has_storage());
  cache.attach_storage(alloc, 8);
  EXPECT_TRUE(cache.has_storage());
  EXPECT_EQ(cache.row_floats(), 8u);
  EXPECT_EQ(cache.storage_bytes(), 4u * 8u * sizeof(float));
  EXPECT_EQ(alloc.bytes_in_use(), before + cache.storage_bytes());

  // LRU starts empty: four distinct vertices fill the four slots, each
  // admission reported in order.
  const auto r1 = cache.lookup_and_update({0, 1, 2, 3});
  EXPECT_EQ(r1.admitted.size(), 4u);
  {
    // slot_of / resident_row / slot_row REQUIRE the cache mutex; take it
    // batch-scoped like the executor does (and drop it before the next
    // lookup_and_update, which EXCLUDES it).
    const support::MutexLock lock(cache.mutex());
    for (graph::NodeId v : {0, 1, 2, 3}) {
      EXPECT_NE(cache.slot_of(v), cache::DeviceCache::kNoSlot) << v;
      EXPECT_NE(cache.resident_row(v), nullptr) << v;
    }
    // Distinct resident vertices own distinct slots.
    EXPECT_NE(cache.slot_of(0), cache.slot_of(1));
  }

  // A full batch of new vertices evicts all four and recycles their
  // slots; evicted vertices lose theirs.
  const auto r2 = cache.lookup_and_update({10, 11, 12, 13});
  EXPECT_EQ(r2.admitted.size(), 4u);
  {
    const support::MutexLock lock(cache.mutex());
    for (graph::NodeId v : {0, 1, 2, 3}) {
      EXPECT_EQ(cache.slot_of(v), cache::DeviceCache::kNoSlot) << v;
      EXPECT_EQ(cache.resident_row(v), nullptr) << v;
    }
    for (graph::NodeId v : {10, 11, 12, 13}) {
      EXPECT_NE(cache.slot_of(v), cache::DeviceCache::kNoSlot) << v;
    }

    // Rows are per-slot storage: writes land where slot_of points.
    float* row = cache.resident_row(graph::NodeId{10});
    ASSERT_NE(row, nullptr);
    for (std::size_t j = 0; j < 8; ++j) row[j] = static_cast<float>(j);
    EXPECT_EQ(cache.slot_row(cache.slot_of(10))[7], 7.0f);
  }
}

TEST(DeviceCacheStorage, StaticPolicyAssignsSlotsAtAttach) {
  Rng grng(6);
  const auto g = graph::power_law_configuration(64, 2.2, 2, 24, grng);
  cache::DeviceCache cache(cache::CachePolicy::kStatic, 6, g);
  ASSERT_EQ(cache.resident_count(), 6u);
  compute::DeviceAllocator& alloc =
      compute::BackendFactory::create(compute::kBlockedBackendId)
          ->allocator();
  cache.attach_storage(alloc, 4);
  std::size_t with_slots = 0;
  {
    const support::MutexLock lock(cache.mutex());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (cache.is_resident(v)) {
        EXPECT_NE(cache.slot_of(v), cache::DeviceCache::kNoSlot) << v;
        ++with_slots;
      } else {
        EXPECT_EQ(cache.slot_of(v), cache::DeviceCache::kNoSlot) << v;
      }
    }
  }
  EXPECT_EQ(with_slots, 6u);

  // residency_version is a value snapshot, not a live reference into the
  // cache: a held snapshot must not follow later residency changes.
  static_assert(std::is_same_v<decltype(cache.residency_version()),
                               std::uint64_t>,
                "residency_version() must return by value");
  cache::DeviceCache lru(cache::CachePolicy::kLru, 4, g);
  const std::uint64_t snapshot = lru.residency_version();
  lru.lookup_and_update({0, 1, 2, 3});
  ASSERT_EQ(lru.resident_count(), 4u);  // the lookup changed residency
  EXPECT_LT(snapshot, lru.residency_version());
}

// -------------------------------------------------- end-to-end equality

TEST(BackendEndToEnd, BlockedAndScalarReportsBitIdenticalAtPools128) {
  graph::SyntheticSpec spec;
  spec.name = "backend-e2e";
  spec.num_nodes = 500;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.min_degree = 3;
  spec.max_degree = 50;
  const graph::Dataset ds = graph::make_synthetic_dataset(spec, 9);
  const runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_pagraph_full();
  config.batch_size = 128;

  std::vector<runtime::TrainReport> reports;
  const auto run_every_backend = [&] {
    for (const char* id :
         {compute::kBlockedBackendId, compute::kScalarBackendId}) {
      runtime::RunOptions ro;
      ro.epochs = 2;
      ro.seed = 33;
      ro.backend_id = id;
      reports.push_back(backend.run(config, ro));
      EXPECT_EQ(reports.back().backend_id, id);
    }
  };
  // Main thread: nested work fans out to the global pool. Inside a worker
  // of each pool: it runs inline on that worker.
  run_every_backend();
  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    support::ThreadPool pool(pool_size);
    pool.submit(run_every_backend).get();
  }
  const runtime::TrainReport& ref = reports.front();
  for (std::size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i) + " (" +
                 reports[i].backend_id + ")");
    EXPECT_EQ(ref.epoch_loss, reports[i].epoch_loss);
    EXPECT_EQ(ref.epoch_times_s, reports[i].epoch_times_s);
    EXPECT_EQ(ref.final_train_accuracy, reports[i].final_train_accuracy);
    EXPECT_EQ(ref.val_accuracy, reports[i].val_accuracy);
    EXPECT_EQ(ref.test_accuracy, reports[i].test_accuracy);
    EXPECT_EQ(ref.cache_hit_rate, reports[i].cache_hit_rate);
    EXPECT_EQ(ref.avg_batch_nodes, reports[i].avg_batch_nodes);
    EXPECT_EQ(ref.per_batch_nodes, reports[i].per_batch_nodes);
    EXPECT_EQ(ref.iterations_per_epoch, reports[i].iterations_per_epoch);
    EXPECT_EQ(ref.peak_memory_gb, reports[i].peak_memory_gb);
  }
}

}  // namespace
}  // namespace gnav
