// perfbench: the attested gateway's benchmark driver.
//
//   perfbench --workload <warm-rpc|batch-fanout|guest-kernels|tenant-onboard>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes one operation's spans as Chrome trace_event JSON under --out.
// Exit codes: 0 ok, 1 an output check failed (the result line says
// correct=false), 2 usage or runtime error, 3 a set-up precondition failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>

#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--out") options.out_dir = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (options.seconds <= 0) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  using Runner = void (*)(const Options&, perfbench::Report&);
  const std::map<std::string, Runner> workloads = {
      {"warm-rpc", perfbench::run_warm_rpc},
      {"batch-fanout", perfbench::run_batch_fanout},
      {"guest-kernels", perfbench::run_guest_kernels},
      {"tenant-onboard", perfbench::run_tenant_onboard},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) usage(("unknown workload '" + options.workload + "'").c_str());

  perfbench::Report report;
  try {
    it->second(options, report);
  } catch (const perfbench::PreconditionError& e) {
    std::fprintf(stderr, "perfbench: precondition failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
