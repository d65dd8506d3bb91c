#ifndef AQV_BENCH_BENCH_COMMON_H_
#define AQV_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/status.h"

namespace aqv {
namespace bench {

/// Unwraps a Result in bench code; aborts loudly on error (benchmarks must
/// not silently measure failure paths).
template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Prints an experiment banner: the bench's id (T1–T5 for the paper's
/// results in PAPER.md, F5 and F12 for the evaluator and the store) and
/// what it measures.
inline void Banner(const char* id, const char* title) {
  std::printf("==== %s: %s ====\n", id, title);
}

/// Unwraps into *out, or marks the benchmark skipped (resource caps on the
/// exponential algorithms are expected outcomes, not setup bugs).
template <typename T>
bool UnwrapOrSkip(Result<T> r, benchmark::State& state, T* out) {
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return false;
  }
  *out = std::move(r).value();
  return true;
}

}  // namespace bench
}  // namespace aqv

#endif  // AQV_BENCH_BENCH_COMMON_H_
