// The benchmark's two workloads. Each builds its inputs from the seed before
// its timed window, checks its outputs, and reports the end-to-end metrics
// (trace = false) or the per-layer metrics of a separate traced run
// (trace = true).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/util.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout: durable replica data lives under a
  // fresh subdirectory of it, and the traced run writes its spans there.
  std::string work_dir;
};

RunReport RunLanClosedPrivate(const RunArgs& args);
RunReport RunLanOpenYcsbDurable(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
