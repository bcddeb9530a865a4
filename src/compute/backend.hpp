// gnav::compute — the pluggable compute-backend layer.
//
// Everything above the raw kernels (nn layers, the training runtime, the
// device cache) talks to an abstract ComputeBackend instead of calling a
// hard-wired CPU implementation: a virtual SpMM entry point and
// per-backend device memory (a DeviceAllocator the backend owns, which
// turns cache::DeviceCache into an actual device-residency manager).
// Backends are created by string id through BackendFactory — the
// tensorlogic BackendFactory::create / Etaler CPUBackend-OpenCLBackend
// pattern — so a GPU or out-of-core backend is a registration, not a
// refactor.
//
// A backend is a kernel choice and nothing more: it never reaches the
// estimator, the profiling corpus's features or the DSE. T and Γ are
// simulated by hw::CostModel, and every built-in backend gives the same
// bits, so no prediction or decision could depend on it.
//
// Bit-identity contract PER BACKEND ID: a backend must produce the exact
// same bits for the same inputs at any thread count and on any host (the
// kernel layer's accumulate-order contract, see kernels/spmm.hpp). The
// golden-trace suite keys its goldens by backend id; the two built-in
// CPU backends additionally produce identical bits to EACH OTHER because
// they share the kernel layer's accumulation order — a future backend
// with a different order gets its own golden block, not a waiver.
//
// Built-in ids:
//   "cpu-scalar"  — the naive reference loop; semantic ground truth.
//   "cpu-blocked" — the production register-tiled AVX2-dispatch kernel.
// Each passes its kernels::SpmmImpl to the kernel layer as a plain
// argument; the backend id is the only selection there is.
//
// Selection is per run, collector or job (runtime::RunOptions,
// estimator::CollectorOptions, serve::JobRequest::backend_id; each
// defaults to "cpu-blocked"). The runtime pins RunOptions::backend_id
// with a lexical thread-local BackendScope in the run and in every async
// stage closure, where the nn layers find it; concurrent jobs on shared
// pools never see each other's kernels (pinned by test_serve.cpp). A
// thread with no scope resolves to "cpu-blocked".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "kernels/spmm.hpp"
#include "tensor/tensor.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::obs {
class Gauge;
}  // namespace gnav::obs

namespace gnav::compute {

inline constexpr const char* kScalarBackendId = "cpu-scalar";
inline constexpr const char* kBlockedBackendId = "cpu-blocked";

/// What a live backend instance dispatches to on this host (diagnostics
/// only; nothing in the estimator or the DSE reads it).
struct BackendCapabilities {
  /// The SIMD path the backend's kernels run: "avx2" | "sse2" |
  /// "portable".
  std::string simd_tier = "portable";
};

/// Device-memory interface a backend owns. Allocation sizes are float
/// counts (every device payload in this system is float rows). The base
/// class tracks in-use and peak bytes so tests and diagnostics can audit
/// residency for real; implementations only provide the raw allocate /
/// deallocate pair. Thread-safe: backends are process-wide singletons
/// shared by concurrent jobs.
class DeviceAllocator {
 public:
  virtual ~DeviceAllocator() = default;

  float* allocate_floats(std::size_t count);
  void deallocate_floats(float* p, std::size_t count);

  std::size_t bytes_in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Publishes this allocator's in-use/peak byte accounting as metrics
  /// gauges labeled by backend id (gnav_device_bytes_in_use /
  /// gnav_device_bytes_peak). BackendFactory calls it once when the
  /// singleton backend is created; never calling it leaves the gauges
  /// unbound and the allocator purely self-accounting.
  void bind_metrics(const std::string& backend_id);

 protected:
  virtual float* do_allocate(std::size_t count) = 0;
  virtual void do_deallocate(float* p, std::size_t count) = 0;

 private:
  std::atomic<std::size_t> in_use_{0};
  std::atomic<std::size_t> peak_{0};
  // Set once by bind_metrics before the backend is handed to callers;
  // atomic so allocation paths can read them without synchronization.
  std::atomic<obs::Gauge*> in_use_gauge_{nullptr};
  std::atomic<obs::Gauge*> peak_gauge_{nullptr};
};

/// Scale-vector builders shared by the nn aggregation wrappers and layers
/// (which cache them across forward/backward): 1/deg(v), with 0 for
/// isolated vertices.
std::vector<float> inverse_degree_scales(const graph::CsrGraph& g);
/// 1/sqrt(deg(v) + 1) — the GCN symmetric normalization.
std::vector<float> gcn_norm_scales(const graph::CsrGraph& g);

/// SpmmScales of the GCN-normalized operator for a gcn_norm_scales
/// vector: src = dst = self = 1/sqrt(d+1), i.e.
/// Y[v] = s_v * (s_v X[v] + sum_u s_u X[u]). One definition shared by
/// nn/aggregate and the nn layers so the convention cannot drift.
inline kernels::SpmmScales gcn_spmm_scales(const float* norm) {
  kernels::SpmmScales scales;
  scales.src_scale = norm;
  scales.dst_scale = norm;
  scales.self_scale = norm;
  return scales;
}

/// Mean aggregation for an inverse_degree_scales vector: post-sum
/// dst scale of 1/deg(v).
inline kernels::SpmmScales mean_spmm_scales(const float* inv_deg) {
  kernels::SpmmScales scales;
  scales.dst_scale = inv_deg;
  return scales;
}

/// Transpose-mean (backprop scatter as a pull on the symmetric CSR):
/// per-source weight 1/deg(u).
inline kernels::SpmmScales mean_transpose_spmm_scales(const float* inv_deg) {
  kernels::SpmmScales scales;
  scales.src_scale = inv_deg;
  return scales;
}

class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  virtual const std::string& id() const = 0;

  /// This instance's kernel dispatch on this host.
  virtual BackendCapabilities capabilities() const = 0;

  /// The backend's device memory. cache::DeviceCache::attach_storage
  /// draws its feature slab from here, making residency real instead of
  /// simulated.
  virtual DeviceAllocator& allocator() const = 0;

  /// Y = weighted-SpMM(g, X); same contract as kernels::spmm (y must
  /// match x's shape, must not alias it, `pool` null = global pool).
  virtual void spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
                    tensor::Tensor& y, const kernels::SpmmScales& scales,
                    support::ThreadPool* pool = nullptr) const = 0;

  /// Allocating convenience over the virtual spmm.
  tensor::Tensor spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
                      const kernels::SpmmScales& scales,
                      support::ThreadPool* pool = nullptr) const;
};

/// String-keyed backend factory + registry. Instances are process-wide
/// singletons (one per id), created on first use — per-backend device
/// memory has a single owner no matter how many runs share the backend.
class BackendFactory {
 public:
  using Creator = std::shared_ptr<ComputeBackend> (*)();

  /// Returns the singleton for `id`; throws gnav::Error naming the
  /// registered ids when `id` is unknown.
  static std::shared_ptr<const ComputeBackend> create(const std::string& id);

  static bool is_registered(const std::string& id);
  /// Registered ids in registration order (built-ins first).
  static std::vector<std::string> registered_ids();

  /// Registers a custom backend (extension point; see
  /// examples/extending_backend.cpp). Throws if `id` is already
  /// registered.
  static void register_backend(const std::string& id, Creator creator);
};

/// Backend the calling thread currently resolves to: the innermost
/// active BackendScope on this thread, else "cpu-blocked".
const ComputeBackend& current_backend();

/// RAII thread-local backend pin. The runtime pins RunOptions::backend_id
/// with it for the whole run and re-pins inside every async stage closure
/// (fresh stage threads inherit no thread-local state), so concurrent
/// jobs on shared pools can never observe each other's selection.
class BackendScope {
 public:
  explicit BackendScope(std::shared_ptr<const ComputeBackend> backend);
  explicit BackendScope(const std::string& id);
  ~BackendScope();
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  std::shared_ptr<const ComputeBackend> backend_;  // keeps the pin alive
  const ComputeBackend* prev_;
};

}  // namespace gnav::compute
