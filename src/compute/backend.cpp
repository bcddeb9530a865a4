#include "compute/backend.hpp"

#include <cmath>
#include <new>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"
#include "support/thread_safety.hpp"

namespace gnav::compute {

// ---------------------------------------------------------------------------
// DeviceAllocator — byte accounting over the raw allocate/deallocate pair.

float* DeviceAllocator::allocate_floats(std::size_t count) {
  float* p = do_allocate(count);
  const std::size_t bytes = count * sizeof(float);
  const std::size_t now =
      in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Lock-free peak update; relaxed is fine, the counters are diagnostics.
  std::size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  if (auto* g = in_use_gauge_.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(now));
  }
  if (auto* g = peak_gauge_.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(peak_.load(std::memory_order_relaxed)));
  }
  return p;
}

void DeviceAllocator::deallocate_floats(float* p, std::size_t count) {
  if (p == nullptr) return;
  do_deallocate(p, count);
  const std::size_t now =
      in_use_.fetch_sub(count * sizeof(float), std::memory_order_relaxed) -
      count * sizeof(float);
  if (auto* g = in_use_gauge_.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(now));
  }
}

void DeviceAllocator::bind_metrics(const std::string& backend_id) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"backend", backend_id}};
  // First-wins: a delegating backend that shares another backend's
  // allocator must not re-label the owner's byte gauges (or register a
  // duplicate zero-valued series under its own label).
  if (in_use_gauge_.load(std::memory_order_relaxed) != nullptr) return;
  obs::Gauge* expected = nullptr;
  obs::Gauge* in_use = &reg.gauge(
      "gnav_device_bytes_in_use", labels,
      "Device-allocator bytes currently allocated");
  if (!in_use_gauge_.compare_exchange_strong(expected, in_use,
                                             std::memory_order_relaxed)) {
    return;
  }
  peak_gauge_.store(&reg.gauge("gnav_device_bytes_peak", labels,
                               "Device-allocator high-water-mark bytes"),
                    std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Scale builders (the definitions nn/aggregate.hpp re-exports).

std::vector<float> inverse_degree_scales(const graph::CsrGraph& g) {
  std::vector<float> inv(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto d = g.degree(v);
    inv[static_cast<std::size_t>(v)] =
        d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
  }
  return inv;
}

std::vector<float> gcn_norm_scales(const graph::CsrGraph& g) {
  std::vector<float> norm(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    norm[static_cast<std::size_t>(v)] =
        1.0f / std::sqrt(static_cast<float>(g.degree(v) + 1));
  }
  return norm;
}

// ---------------------------------------------------------------------------
// ComputeBackend shared behavior.

tensor::Tensor ComputeBackend::spmm(const graph::CsrGraph& g,
                                    const tensor::Tensor& x,
                                    const kernels::SpmmScales& scales,
                                    support::ThreadPool* pool) const {
  tensor::Tensor y(x.rows(), x.cols());
  spmm(g, x, y, scales, pool);
  return y;
}

namespace {

// ---------------------------------------------------------------------------
// Built-in allocators.

/// Cache-line-aligned heap allocator for the plain CPU backends.
class AlignedHeapAllocator final : public DeviceAllocator {
 protected:
  float* do_allocate(std::size_t count) override {
    return static_cast<float*>(::operator new(
        count * sizeof(float), std::align_val_t{64}));
  }
  void do_deallocate(float* p, std::size_t count) override {
    ::operator delete(p, count * sizeof(float), std::align_val_t{64});
  }
};

// ---------------------------------------------------------------------------
// Built-in backends.

/// Plain CPU backend delegating to one kernels::SpmmImpl ("cpu-scalar" /
/// "cpu-blocked").
class CpuKernelBackend : public ComputeBackend {
 public:
  CpuKernelBackend(std::string id, kernels::SpmmImpl impl)
      : id_(std::move(id)), impl_(impl) {}

  const std::string& id() const override { return id_; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    if (impl_ != kernels::SpmmImpl::kScalar) {
      caps.simd_tier = support::active_simd_isa();
    }
    return caps;
  }

  DeviceAllocator& allocator() const override { return allocator_; }

  using ComputeBackend::spmm;
  void spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
            tensor::Tensor& y, const kernels::SpmmScales& scales,
            support::ThreadPool* pool) const override {
    kernels::spmm(g, x, y, scales, impl_, pool);
  }

 private:
  std::string id_;
  kernels::SpmmImpl impl_;
  mutable AlignedHeapAllocator allocator_;
};

// ---------------------------------------------------------------------------
// Registry.

std::shared_ptr<ComputeBackend> make_scalar_backend() {
  return std::make_shared<CpuKernelBackend>(kScalarBackendId,
                                            kernels::SpmmImpl::kScalar);
}

std::shared_ptr<ComputeBackend> make_blocked_backend() {
  return std::make_shared<CpuKernelBackend>(kBlockedBackendId,
                                            kernels::SpmmImpl::kBlocked);
}

struct RegistryEntry {
  BackendFactory::Creator creator = nullptr;
  std::shared_ptr<const ComputeBackend> instance;  // lazily created
};

struct Registry {
  mutable support::Mutex mu;
  std::vector<std::string> order GNAV_GUARDED_BY(mu);
  /// entries is looked up by key only; diagnostics listing backends walk
  /// `order` (registration order), never this map.
  std::unordered_map<std::string, RegistryEntry> entries GNAV_GUARDED_BY(mu);

  Registry() {
    // The lock is uncontended here (nobody else can see the registry
    // before the constructor returns) but satisfies add()'s REQUIRES.
    const support::MutexLock lock(mu);
    add(kScalarBackendId, &make_scalar_backend);
    add(kBlockedBackendId, &make_blocked_backend);
  }

  void add(const std::string& id, BackendFactory::Creator creator)
      GNAV_REQUIRES(mu) {
    order.push_back(id);
    entries.emplace(id, RegistryEntry{creator, nullptr});
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

std::string joined_ids_locked(const Registry& r) GNAV_REQUIRES(r.mu) {
  std::string out;
  for (const auto& id : r.order) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

}  // namespace

std::shared_ptr<const ComputeBackend> BackendFactory::create(
    const std::string& id) {
  Registry& r = registry();
  Creator creator = nullptr;
  {
    const support::MutexLock lock(r.mu);
    const auto it = r.entries.find(id);
    if (it == r.entries.end()) {
      throw Error("unknown compute backend \"" + id +
                  "\" (registered: " + joined_ids_locked(r) + ")");
    }
    if (it->second.instance) return it->second.instance;
    creator = it->second.creator;
  }
  // Run the user-supplied creator OUTSIDE the registry lock. A creator
  // is arbitrary code: a delegating backend constructs its delegate by
  // re-entering create(), which self-deadlocks on r.mu if the creator
  // runs under it — the same re-entry class the bind_metrics call below
  // already dodges. Two racing first-creates may both run the creator;
  // the second install loses and its instance is discarded (first-wins,
  // like bind_metrics).
  std::shared_ptr<const ComputeBackend> fresh = creator();
  GNAV_CHECK(fresh != nullptr,
             "backend creator for \"" + id + "\" returned null");
  GNAV_CHECK(fresh->id() == id, "backend creator for \"" + id +
                                    "\" built a backend named \"" +
                                    fresh->id() + "\"");
  std::shared_ptr<const ComputeBackend> instance;
  bool created = false;
  {
    const support::MutexLock lock(r.mu);
    const auto it = r.entries.find(id);
    GNAV_CHECK(it != r.entries.end(),
               "backend \"" + id + "\" vanished during create");
    if (!it->second.instance) {
      it->second.instance = std::move(fresh);
      created = true;
    }
    instance = it->second.instance;
  }
  if (created) {
    // Singleton creation is the one point every backend passes exactly
    // once — wire its allocator's byte gauges to the registry here.
    // Outside the registry lock: a delegating backend (one whose
    // allocator() forwards to another backend's) re-enters create(),
    // which would self-deadlock on r.mu. bind_metrics is first-wins,
    // so the delegate keeps the owning backend's label.
    instance->allocator().bind_metrics(id);
  }
  return instance;
}

bool BackendFactory::is_registered(const std::string& id) {
  Registry& r = registry();
  const support::MutexLock lock(r.mu);
  return r.entries.find(id) != r.entries.end();
}

std::vector<std::string> BackendFactory::registered_ids() {
  Registry& r = registry();
  const support::MutexLock lock(r.mu);
  return r.order;
}

void BackendFactory::register_backend(const std::string& id,
                                      Creator creator) {
  GNAV_CHECK(!id.empty(), "backend id must be non-empty");
  GNAV_CHECK(creator != nullptr, "backend creator must be non-null");
  Registry& r = registry();
  const support::MutexLock lock(r.mu);
  GNAV_CHECK(r.entries.find(id) == r.entries.end(),
             "compute backend \"" + id + "\" is already registered");
  r.add(id, creator);
}

// ---------------------------------------------------------------------------
// Thread-local backend resolution.

namespace {
thread_local const ComputeBackend* t_current_backend = nullptr;
}  // namespace

const ComputeBackend& current_backend() {
  if (t_current_backend != nullptr) return *t_current_backend;
  // Registry singletons are never destroyed while in use, so handing out
  // a reference to the shared instance is safe.
  return *BackendFactory::create(kBlockedBackendId);
}

BackendScope::BackendScope(std::shared_ptr<const ComputeBackend> backend)
    : backend_(std::move(backend)), prev_(t_current_backend) {
  GNAV_CHECK(backend_ != nullptr, "BackendScope: backend must be non-null");
  t_current_backend = backend_.get();
}

BackendScope::BackendScope(const std::string& id)
    : BackendScope(BackendFactory::create(id)) {}

BackendScope::~BackendScope() { t_current_backend = prev_; }

}  // namespace gnav::compute
