#include "timed_life.hpp"

#include <atomic>

#include "life/fast_step.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_busy_ns{0};
std::atomic<uint64_t> g_calls{0};

void charge(int64_t t0) {
  g_busy_ns.fetch_add(static_cast<uint64_t>(now_ns() - t0),
                      std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
}

dps::life::Band timed_step_band(const dps::life::Band& band,
                                const std::vector<uint8_t>& above,
                                const std::vector<uint8_t>& below) {
  const int64_t t0 = now_ns();
  dps::life::Band out = dps::life::lut_step_band(band, above, below);
  charge(t0);
  return out;
}

dps::life::Band timed_step_interior(const dps::life::Band& band) {
  const int64_t t0 = now_ns();
  dps::life::Band out = dps::life::lut_step_interior(band);
  charge(t0);
  return out;
}

void timed_step_borders(const dps::life::Band& band,
                        const std::vector<uint8_t>& above,
                        const std::vector<uint8_t>& below,
                        dps::life::Band& out) {
  const int64_t t0 = now_ns();
  dps::life::lut_step_borders(band, above, below, out);
  charge(t0);
}

}  // namespace

void register_timed_life_backend() {
  static const bool registered = [] {
    dps::life::active_life_kernel();  // registers "naive" and "lut" first
    const dps::life::LifeKernel* lut = dps::life::LifeBackends::find("lut");
    DPS_CHECK(lut != nullptr, "the lut Life backend is not registered");
    dps::life::LifeBackends::register_backend(
        kTimedLifeBackend,
        dps::life::LifeKernel{&timed_step_band, &timed_step_interior,
                              &timed_step_borders, lut->id});
    return true;
  }();
  (void)registered;
}

LeafCounters timed_life_counters() {
  return {g_busy_ns.load(std::memory_order_relaxed),
          g_calls.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
