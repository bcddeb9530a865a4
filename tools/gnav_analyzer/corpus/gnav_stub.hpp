// Hermetic stand-ins for the std and project surfaces the checks key
// on. Corpus TUs include ONLY this header, so the self-test parses with
// no system include path at all — the checks match canonical type
// spellings ("std::thread", "gnav::support::Rng", ...) and these fakes
// produce the same spellings as the real headers. Declaration-only on
// purpose: the corpus is parsed, never linked.
#pragma once

namespace std {
using size_t = decltype(sizeof(0));

class string {
 public:
  string();
  string(const char* s);  // NOLINT — implicit, mirrors std::string
};

class thread {
 public:
  thread();
  template <typename F>
  explicit thread(F f);
  void join();
};

template <typename T>
class function;
template <typename R, typename... Args>
class function<R(Args...)> {
 public:
  function();
  template <typename F>
  function(F f);  // NOLINT — implicit, mirrors std::function
  function& operator=(const function& other);
  R operator()(Args... args) const;
  explicit operator bool() const;
};

template <typename T>
class vector {
 public:
  struct iterator {
    T& operator*();
    iterator& operator++();
    bool operator!=(const iterator& other) const;
  };
  iterator begin() const;
  iterator end() const;
  T& operator[](size_t i);
  void push_back(const T& value);
  template <typename... Args>
  void emplace_back(Args&&... args);
  size_t size() const;
};

template <typename K, typename V>
class unordered_map {
 public:
  struct value_type {
    K first;
    V second;
  };
  struct iterator {
    value_type& operator*();
    iterator& operator++();
    bool operator!=(const iterator& other) const;
  };
  iterator begin() const;
  iterator end() const;
  V& operator[](const K& key);
};

template <typename K>
class unordered_set {
 public:
  struct iterator {
    const K& operator*();
    iterator& operator++();
    bool operator!=(const iterator& other) const;
  };
  iterator begin() const;
  iterator end() const;
};
}  // namespace std

namespace gnav {
namespace support {
class __attribute__((capability("mutex"))) Mutex {
 public:
  void lock() __attribute__((acquire_capability()));
  void unlock() __attribute__((release_capability()));
};

class __attribute__((scoped_lockable)) MutexLock {
 public:
  explicit MutexLock(Mutex& mu) __attribute__((acquire_capability(mu)));
  ~MutexLock() __attribute__((release_capability()));
};

class Rng {
 public:
  explicit Rng(unsigned long long seed);
  Rng(const Rng& other) = default;
  unsigned long long next_u64();
};

unsigned long long task_seed(unsigned long long base, std::size_t index);

class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);
  template <typename F>
  void submit(F&& f);
};
}  // namespace support

namespace kernels {
void spmm(const float* x, float* y, std::size_t n);
}  // namespace kernels

namespace compute {
class ComputeBackend {
 public:
  virtual ~ComputeBackend();
  virtual void spmm() const;
};

class BackendScope {
 public:
  explicit BackendScope(const std::string& id);
  ~BackendScope();
};

const ComputeBackend& current_backend();

class BackendFactory {
 public:
  static const ComputeBackend* create(const std::string& id);
};
}  // namespace compute
}  // namespace gnav

#define GNAV_GUARDED_BY(x) __attribute__((guarded_by(x)))
#define GNAV_REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))
