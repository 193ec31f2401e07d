// The benchmark's workloads.  Each one sets up its world, warms it, runs
// a closed loop for the requested seconds, checks every output, and
// writes one JSON document of raw measurements (perfbench/run.py turns
// them into metrics).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class JsonWriter;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;  ///< where the JSON document goes
};

/// Runs one workload and writes its measurements to `out` as one object;
/// false, writing nothing, when the name is unknown.  Throws
/// std::runtime_error when the world cannot be set up.
bool run_workload(const Args& args, JsonWriter& out);

}  // namespace perfbench
