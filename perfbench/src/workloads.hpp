// The benchmark's workloads. Each one builds its inputs from the seed, sets
// up the engine kSetups times, measures for config.seconds on the
// last set-up, and checks every output.
#pragma once

#include "common.hpp"

namespace perfbench {

/// `life`: the improved (Fig. 8) Life graph on a seeded 2048x2048 world,
/// 3 bands on 3 shm nodes, one iteration call at a time, timed in requests
/// of 8 calls. An op is one iteration.
RunResult run_life(const RunConfig& config);

/// `ring`: the Fig. 6 ring on 3 shm nodes, 1 kB blocks, flow window 1024,
/// a sequence of long calls. An op is one block around the ring.
RunResult run_ring(const RunConfig& config);

/// `service`: the split/hash/merge graph of service_graph.hpp on 2 TCP
/// nodes, one closed-loop generator keeping 4 calls in flight. An op is
/// one call.
RunResult run_service(const RunConfig& config);

}  // namespace perfbench
