// perfbench — ASDF's end-to-end benchmark driver.
//
//   perfbench --workload=sim_scale|replay_50|live_50 --seed=N
//             --seconds=S --trace=0|1 [--rpcd=PATH] [--work-dir=DIR]
//             [--trace-file=PATH]
//
// Prints progress and context lines, then one JSON result line:
// the end-to-end metrics (--trace=0) or the per-layer ones
// (--trace=1). Exit code 0 when every output check passed, 1 when one
// failed, 2 on a usage or run error (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "modules/modules.h"
#include "workloads.h"

namespace {

bool flag(const std::string& arg, const std::string& name,
          std::string& value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--rpcd=PATH] [--work-dir=DIR] "
               "[--trace-file=PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.workDir = "perfbench-work";
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    char* end = nullptr;
    if (flag(arg, "workload", value)) {
      opts.workload = value;
    } else if (flag(arg, "seed", value)) {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag(arg, "seconds", value)) {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag(arg, "trace", value)) {
      if (value != "0" && value != "1") return usage("bad --trace");
      opts.trace = value == "1";
    } else if (flag(arg, "rpcd", value)) {
      opts.rpcdBinary = value;
    } else if (flag(arg, "work-dir", value)) {
      opts.workDir = value;
    } else if (flag(arg, "trace-file", value)) {
      opts.traceFile = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload.empty()) return usage("--workload is required");

  asdf::modules::registerBuiltinModules();
  try {
    const perfbench::Report report = perfbench::runWorkload(opts);
    for (const perfbench::Metric& m : report.metrics()) {
      std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
