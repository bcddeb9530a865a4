// Known-good: every kernel-reaching thread body pins a BackendScope
// before the first reaching call (the stage-closure pattern in
// runtime/backend.cpp), and threads that never touch kernel code need
// no scope at all.
#include "gnav_stub.hpp"

namespace {
void churn(const float* x, float* y) { gnav::kernels::spmm(x, y, 64); }
}  // namespace

void pinned_backend(const float* x, float* y) {
  std::thread worker([x, y] {
    gnav::compute::BackendScope scope("cpu-scalar");
    gnav::kernels::spmm(x, y, 4);
  });
  worker.join();
}

void pinned_transitive(const float* x, float* y) {
  std::thread worker([x, y] {
    gnav::compute::BackendScope scope("cpu-blocked");
    churn(x, y);
  });
  worker.join();
}

void no_kernel_work() {
  std::thread worker([] {
    int acc = 0;
    ++acc;
    (void)acc;
  });
  worker.join();
}
