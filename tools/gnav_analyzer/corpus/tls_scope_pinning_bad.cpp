// Known-bad: std::thread bodies reach kernel code with no BackendScope
// pinned first — fresh threads inherit no thread-local backend
// selection, so these silently compute on cpu-blocked whatever the
// caller pinned.
#include "gnav_stub.hpp"

namespace {
void churn(const float* x, float* y) { gnav::kernels::spmm(x, y, 64); }
}  // namespace

void unpinned_direct(const float* x, float* y) {
  std::thread worker([x, y] {
    gnav::kernels::spmm(x, y, 4);  // expect-finding(tls-scope-pinning)
  });
  worker.join();
}

void unpinned_transitive(const float* x, float* y) {
  std::thread worker([x, y] {
    churn(x, y);  // expect-finding(tls-scope-pinning)
  });
  worker.join();
}

void unpinned_emplace(std::vector<std::thread>& workers, const float* x,
                      float* y) {
  workers.emplace_back([x, y] {
    gnav::kernels::spmm(x, y, 4);  // expect-finding(tls-scope-pinning)
  });
}
