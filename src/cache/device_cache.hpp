// Device-side feature cache — the unified abstraction of the paper's
// transmission-strategy category (Sec. 3.2): free device memory holds
// feature rows of selected vertices; each mini-batch is split into a
// cached part (no transfer) and a miss part (transferred host->device),
// after which the cache updates per its policy.
//
// Policy templates:
//   kNone    — no cache; everything transfers (PyG behavior).
//   kStatic  — preload the top-`capacity` degree-ranked vertices, never
//              update (PaGraph's static computation-aware cache).
//   kLru/kFifo — classic dynamic replacement, backed by an intrusive
//              doubly-linked recency/insertion list: every touch and
//              eviction is O(1) rather than an O(capacity) scan.
//   kWeightedDegree — dynamic, but a resident vertex is only evicted for
//              a higher-degree one (degree-weighted admission). Backed by
//              a lazy min-heap keyed on (degree, insertion sequence), so
//              the admission probe and the eviction are one amortized
//              O(log capacity) heap access instead of two O(capacity)
//              scans per miss. Victims are identical to the scan-based
//              implementation (min degree, earliest-inserted on ties).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compute/backend.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_safety.hpp"

namespace gnav::obs {
class Counter;
}  // namespace gnav::obs

namespace gnav::cache {

enum class CachePolicy { kNone, kStatic, kLru, kFifo, kWeightedDegree };

/// Device-side bookkeeping per cached row: the resident-set index entry
/// (global vertex id → cache slot). Charged by the memory model (Eq. 9's
/// Γ_cache) on top of the feature payload, so a cache is never free even
/// when every cached row would otherwise have been staged.
inline constexpr double kIndexBytesPerRow = 8.0;

std::string to_string(CachePolicy policy);
CachePolicy cache_policy_from_string(const std::string& s);

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

struct LookupResult {
  std::size_t hits = 0;
  /// Vertices that must be fetched from the host this iteration.
  std::vector<graph::NodeId> misses;
  /// Vertices newly admitted to the cache (replaced stale entries) —
  /// |replaced| drives t_replace in Eq. 5.
  std::size_t replaced = 0;
  /// Vertices admitted this batch, in admission order, when device
  /// storage is attached (empty otherwise). The executor copies these
  /// rows into their slots after the lookup; admission order matters
  /// because a slot can be recycled within one batch — the last admit
  /// per slot is the current owner.
  std::vector<graph::NodeId> admitted;
};

// Threading model: the pipelined executor funnels every mutation
// (lookup_and_update, attach_storage, admitted-row fills) through one
// producer stage at a time, so the cache used to rely purely on that
// pipeline discipline. The mutex makes the discipline checkable: all
// bookkeeping is GNAV_GUARDED_BY(mu_), the hot per-row accessors demand
// the capability (callers take the lock once per batch via mutex(), not
// once per row), and the ONE deliberate unguarded surface — the
// residency bitmap that cache-aware samplers live-read — is called out
// below instead of being an unwritten convention.
class DeviceCache {
 public:
  /// `capacity` is the number of feature rows the device can hold
  /// (r * |V| in the paper's notation). Static policy preloads by degree.
  DeviceCache(CachePolicy policy, std::size_t capacity,
              const graph::CsrGraph& graph);
  ~DeviceCache();

  // Owns a device slab once storage is attached; never copied.
  DeviceCache(const DeviceCache&) = delete;
  DeviceCache& operator=(const DeviceCache&) = delete;

  /// The cache's capability, exposed so batch-granular callers can hold
  /// it across a run of slot_of/slot_row/resident_row calls instead of
  /// paying a lock per row (see runtime/backend.cpp's gather loops).
  // gnav-lint(mutable-ref-accessor): returns the capability itself, not
  // guarded state — the whole point is handing the lock to the caller.
  support::Mutex& mutex() const GNAV_RETURN_CAPABILITY(mu_) { return mu_; }

  /// Backs the cache with real device memory: a capacity × row_floats
  /// float slab drawn from `allocator` (the compute backend's device
  /// memory). Until this is called the cache is bookkeeping-only, which
  /// is what the estimator's cost model and most tests need. After it,
  /// every resident vertex owns a slot in the slab: LookupResult.admitted
  /// reports which rows the executor must stage into their slots, and
  /// resident_row() serves cached feature reads without touching host
  /// memory. Call at most once; vertices already resident (static
  /// preload) get slots assigned immediately — copy their rows next.
  void attach_storage(compute::DeviceAllocator& allocator,
                      std::size_t row_floats) GNAV_EXCLUDES(mu_);

  bool has_storage() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return slab_ != nullptr;
  }
  std::size_t row_floats() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return row_floats_;
  }
  /// Bytes of device memory held by the slab (0 before attach_storage).
  std::size_t storage_bytes() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return slab_ != nullptr ? capacity_ * row_floats_ * sizeof(float) : 0;
  }

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Per-row accessors: REQUIRES the cache mutex rather than taking it —
  // they run O(batch) times per iteration and the executor already owns
  // a batch-scoped lock (MutexLock lock(cache.mutex())) around the
  // gather/fill loops.

  /// Slot of vertex v, or kNoSlot when v is not resident / no storage.
  std::size_t slot_of(graph::NodeId v) const GNAV_REQUIRES(mu_) {
    return slot_of_.empty() ? kNoSlot : slot_of_[static_cast<std::size_t>(v)];
  }

  float* slot_row(std::size_t slot) GNAV_REQUIRES(mu_) {
    return slab_ + slot * row_floats_;
  }
  const float* slot_row(std::size_t slot) const GNAV_REQUIRES(mu_) {
    return slab_ + slot * row_floats_;
  }

  /// Device row of a resident vertex, or nullptr when it has no slot.
  const float* resident_row(graph::NodeId v) const GNAV_REQUIRES(mu_) {
    const std::size_t slot = slot_of(v);
    return slot == kNoSlot ? nullptr : slot_row(slot);
  }
  float* resident_row(graph::NodeId v) GNAV_REQUIRES(mu_) {
    const std::size_t slot = slot_of(v);
    return slot == kNoSlot ? nullptr : slot_row(slot);
  }

  /// Processes one mini-batch worth of vertex ids: classifies hits vs
  /// misses and applies the update policy to the misses. O(batch) plus
  /// an amortized O(log capacity) heap access per wdeg admission.
  ///
  /// `sequence` is the ordered-admission contract: when >= 0 it must
  /// equal the number of batches this cache has already admitted. The
  /// pipelined epoch executor passes the running batch index so that a
  /// stage-reordering bug trips a loud error instead of silently skewing
  /// the hit/miss sequence; pass -1 (default) to opt out.
  LookupResult lookup_and_update(const std::vector<graph::NodeId>& batch,
                                 std::int64_t sequence = -1)
      GNAV_EXCLUDES(mu_);

  CachePolicy policy() const { return policy_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t resident_count() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return resident_count_;
  }
  /// By value: stats_ mutates on every lookup, and callers snapshot it
  /// (same hazard class as residency_version below).
  CacheStats stats() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return stats_;
  }

  // Deliberately unguarded: `resident_` is the live-read surface of
  // cache-aware sampling. The sampler reads the bitmap WITHOUT the cache
  // mutex while choosing the next batch; the pipeline's stage chaining
  // (sample and prepare share one producer lane) is what orders those
  // reads against lookup_and_update's writes. Guarding them here would
  // put a lock acquisition inside the sampler's per-vertex loop for a
  // race the pipeline already excludes by construction.
  bool is_resident(graph::NodeId v) const {
    return resident_[static_cast<std::size_t>(v)] != 0;
  }

  /// Residency bitmap (size |V|) — handed to locality-aware samplers so
  /// cache-aware sampling (2PGraph) can prefer resident vertices. The
  /// reference aliases live cache state on purpose (see the unguarded
  /// note above); it is allowlisted in tools/determinism_lint.py rather
  /// than exempted silently.
  const std::vector<char>& residency_bitmap() const { return resident_; }  // gnav-lint(mutable-ref-accessor): documented live-read surface for cache-aware samplers

  /// Monotone counter bumped on every residency change. Samplers key
  /// cached weighted-draw structures on it to detect bitmap staleness
  /// without scanning it. Returned BY VALUE: this used to return
  /// `const std::uint64_t&`, and callers took the address to poll it
  /// later — a live alias into cache internals that silently outlived
  /// any reasoning about when residency changes. Pollers now receive a
  /// std::function provider (see sampling::SamplingBias::version).
  std::uint64_t residency_version() const GNAV_EXCLUDES(mu_) {
    const support::MutexLock lock(mu_);
    return version_;
  }

 private:
  /// Lazy-heap entry for the wdeg policy. Ordered by (degree, seq): the
  /// minimum is the lowest-degree resident, earliest-inserted on ties —
  /// exactly the victim the old linear scan chose.
  struct WdegEntry {
    graph::EdgeId degree = 0;
    std::uint64_t seq = 0;
    graph::NodeId vertex = 0;
  };

  /// std::push_heap/pop_heap build max-heaps; this "greater" comparator
  /// turns them into a min-heap on (degree, seq).
  static bool wdeg_greater(const WdegEntry& a, const WdegEntry& b) {
    return a.degree != b.degree ? a.degree > b.degree : a.seq > b.seq;
  }

  void insert_locked(graph::NodeId v, LookupResult& result)
      GNAV_REQUIRES(mu_);
  void evict_one_locked(LookupResult& result) GNAV_REQUIRES(mu_);
  void list_push_back_locked(graph::NodeId v) GNAV_REQUIRES(mu_);
  void list_unlink_locked(graph::NodeId v) GNAV_REQUIRES(mu_);
  /// Current wdeg victim candidate; pops stale heap entries on the way.
  graph::NodeId wdeg_min_locked() GNAV_REQUIRES(mu_);
  void wdeg_compact_locked() GNAV_REQUIRES(mu_);

  static constexpr graph::NodeId kNil = -1;

  mutable support::Mutex mu_;

  // Immutable after construction — readable lock-free.
  CachePolicy policy_;
  std::size_t capacity_;
  const graph::CsrGraph& graph_;

  // Metrics instruments (obs/), labeled by policy. Resolved once in the
  // constructor — pointers are immutable after construction and the
  // pointees are atomic, so the per-batch updates need no lock beyond
  // mu_ already being held.
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* insertions_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;

  /// The deliberate unguarded surface (see is_resident above): written
  /// under mu_ by the eviction/insertion paths, live-read lock-free by
  /// cache-aware samplers under the pipeline's stage ordering.
  std::vector<char> resident_;

  std::size_t resident_count_ GNAV_GUARDED_BY(mu_) = 0;
  CacheStats stats_ GNAV_GUARDED_BY(mu_);
  std::uint64_t version_ GNAV_GUARDED_BY(mu_) = 0;
  std::uint64_t seq_counter_ GNAV_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_applied_ GNAV_GUARDED_BY(mu_) = 0;

  // Intrusive list over vertex ids (LRU: recency order, FIFO: insertion
  // order; head = next eviction victim).
  std::vector<graph::NodeId> list_prev_ GNAV_GUARDED_BY(mu_);
  std::vector<graph::NodeId> list_next_ GNAV_GUARDED_BY(mu_);
  graph::NodeId list_head_ GNAV_GUARDED_BY(mu_) = kNil;
  graph::NodeId list_tail_ GNAV_GUARDED_BY(mu_) = kNil;

  // wdeg lazy min-heap + per-vertex insertion sequence used to detect
  // stale entries (a re-inserted vertex gets a fresh seq).
  std::vector<WdegEntry> wdeg_heap_ GNAV_GUARDED_BY(mu_);
  std::vector<std::uint64_t> insert_seq_ GNAV_GUARDED_BY(mu_);

  // Device storage (attach_storage): slab of capacity_ × row_floats_
  // floats from the backend's allocator, per-vertex slot index, and the
  // free-slot stack admissions draw from.
  compute::DeviceAllocator* allocator_ GNAV_GUARDED_BY(mu_) = nullptr;
  float* slab_ GNAV_GUARDED_BY(mu_) = nullptr;
  std::size_t row_floats_ GNAV_GUARDED_BY(mu_) = 0;
  std::vector<std::size_t> slot_of_ GNAV_GUARDED_BY(mu_);
  std::vector<std::size_t> free_slots_ GNAV_GUARDED_BY(mu_);
};

}  // namespace gnav::cache
