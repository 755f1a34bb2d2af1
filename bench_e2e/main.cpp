// bench_e2e — end-to-end benchmark of the three user-facing paths: one
// run_distributed (in-process and process transports), a served query from
// submit to answer, and a corpus mutation until its cached answers are
// recertified. bench_e2e/README.md has the workload and metric catalogue.
//
//   bench_e2e --workload coverage-inproc --seed 1 --seconds 24 --trace 0
//   bench_e2e --workload all --smoke
//
// Prints the host fingerprint, one `workload metric value unit` line per
// metric and, last, one JSON object per workload. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage or set-up error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "util/flags.h"

namespace {

constexpr const char* kUsage = R"(usage: bench_e2e --workload NAME [options]
  --workload NAME  coverage-inproc, coverage-process, exemplar-inproc,
                   serve-churn, serve-mutate, or all
  --seed N         input seed                          (default 1)
  --seconds S      timed phase per workload (required without --smoke;
                   run.py passes BENCHMARK.json's run_seconds)
  --trace 0|1      per-layer pass instead of end-to-end (default 0)
  --smoke          toy sizes, every correctness check
  --data-dir DIR   where generated corpora are written (default .)
)";

const std::vector<std::string> kWorkloads = {
    "coverage-inproc", "coverage-process", "exemplar-inproc",
    "serve-churn",     "serve-mutate",
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const bds::util::Flags flags(argc, argv);
    bench::Options opt;
    opt.smoke = flags.get_bool("smoke", false);
    if (flags.has("help") || !flags.has("workload") ||
        (!opt.smoke && !flags.has("seconds"))) {
      std::printf("%s", kUsage);
      return flags.has("help") ? 0 : 2;
    }
    opt.seed = flags.get_uint("seed", 1);
    opt.seconds = flags.get_double("seconds", 0.5);
    opt.trace = flags.get_bool("trace", false);
    opt.data_dir = flags.get_string("data-dir", ".");
    std::filesystem::create_directories(opt.data_dir);
    opt.threads = static_cast<std::size_t>(std::clamp(bench::host_nproc(), 1, 4));

    const std::string name = flags.get_string("workload", "");
    const std::vector<std::string> names =
        name == "all" ? kWorkloads : std::vector<std::string>{name};
    bench::print_fingerprint(opt.threads);
    bool correct = true;
    for (const std::string& workload : names) {
      opt.workload = workload;
      bench::Report report(workload, opt.smoke);
      if (!bench::run_batch_workload(opt, report) &&
          !bench::run_serve_workload(opt, report)) {
        std::fprintf(stderr, "unknown workload '%s'\n%s", workload.c_str(),
                     kUsage);
        return 2;
      }
      report.print();
      correct &= report.correct();
    }
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
