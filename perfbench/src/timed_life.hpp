// The "lut_timed" Life backend: the "lut" kernels wrapped in a timer, so
// the traced run can measure the `compute` layer from outside. It is
// registered through compute::BackendRegistry and selected only in the
// traced run; the untraced run keeps the engine's default "lut".
#pragma once

#include <cstdint>

namespace perfbench {

inline constexpr const char* kTimedLifeBackend = "lut_timed";

/// Registers "lut_timed" on first call (later calls do nothing).
void register_timed_life_backend();

/// Cumulative busy time and call count of the "lut_timed" kernels, summed
/// over every thread that ran them.
struct LeafCounters {
  uint64_t busy_ns = 0;
  uint64_t calls = 0;
};
LeafCounters timed_life_counters();

}  // namespace perfbench
