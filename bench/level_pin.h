#ifndef SKETCHML_BENCH_LEVEL_PIN_H_
#define SKETCHML_BENCH_LEVEL_PIN_H_

#include <benchmark/benchmark.h>

#include "common/simd.h"

namespace sketchml::bench {

/// Pins the SIMD dispatch to one level for a benchmark's scope and
/// restores the previous level on exit, so one run reports scalar and
/// AVX2 numbers side by side whatever SKETCHML_SIMD says. A level the
/// host lacks skips the benchmark instead of failing it, so the binary
/// stays runnable on any host.
class LevelPin {
 public:
  LevelPin(benchmark::State& state, common::simd::Level level)
      : saved_(common::simd::ActiveLevel()) {
    if (common::simd::LevelSupported(level)) {
      common::simd::SetActiveLevel(level);
    } else {
      state.SkipWithError("level not supported on this host");
      ok_ = false;
    }
  }
  ~LevelPin() { common::simd::SetActiveLevel(saved_); }
  explicit operator bool() const { return ok_; }

 private:
  common::simd::Level saved_;
  bool ok_ = true;
};

}  // namespace sketchml::bench

#endif  // SKETCHML_BENCH_LEVEL_PIN_H_
