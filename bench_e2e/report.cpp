#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "util/kernels.h"

namespace bench {
namespace {

std::string format_number(double value, bool integer) {
  char buf[64];
  if (integer) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
  }
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, note, false});
}

void Report::count(const std::string& name, std::uint64_t value,
                   const std::string& note) {
  metrics_.push_back({name, static_cast<double>(value), "count", note, true});
}

void Report::p50_ms(const std::string& name,
                    std::span<const double> seconds) {
  metric(name, median(seconds) * 1e3, "ms",
         "p50, n=" + std::to_string(seconds.size()));
}

void Report::tail_ms(const std::string& name, std::span<const double> seconds,
                     double tail_q) {
  const std::string n = "n=" + std::to_string(seconds.size());
  const std::string p = std::string("p").append(
      format_number(std::round(tail_q * 100), true));
  const auto tail = tail_percentile(seconds, tail_q);
  if (!tail) {
    if (!smoke_) fail(name + ": " + n + " is too few samples for " + p);
    return;
  }
  metric(name, *tail * 1e3, "ms",
         p + ", " + n + ", " +
             std::to_string(samples_beyond(seconds.size(), tail_q)) +
             " beyond");
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& what, std::uint64_t n) {
  if (n == 0) return;
  std::fprintf(stderr, "%s: FAILED (%llu): %s\n", workload_.c_str(),
               static_cast<unsigned long long>(n), what.c_str());
  failed_ += n;
}

void Report::print() const {
  for (const std::string& line : notes_) {
    std::printf("# %s %s\n", workload_.c_str(), line.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%s %s %s %s%s%s\n", workload_.c_str(), m.name.c_str(),
                format_number(m.value, m.integer).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += i == 0 ? "\"" : ", \"";
    json += json_escape(m.name);
    json += "\": {\"value\": ";
    json += format_number(m.value, m.integer);
    json += ", \"unit\": \"";
    json += json_escape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_fingerprint(std::size_t threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# host cpu_model=%s\n", cpu_model().c_str());
  std::printf("# host isa=%s\n", bds::kern::active_name());
  std::printf("# host hardware_concurrency=%u nproc=%d load_threads=%zu\n", hw,
              host_nproc(), threads);
  std::printf("# host compiler=%s build_type=%s git_sha=%s\n", BENCH_COMPILER,
              BENCH_BUILD_TYPE, BENCH_GIT_SHA);
  std::printf(
      "# host note=load is capped at %zu threads and 4 worker processes, so "
      "this run cannot show multi-core or multi-process scaling and claims "
      "none\n",
      threads);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the launcher's peak
  // across exec, so a small workload would report its parent's footprint.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void run_in_child(const std::function<void()>& fn, const std::string& what) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error(what + ": fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", what.c_str(), e.what());
      code = 1;
    }
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error(what + ": waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(what + ": child failed");
  }
}

TempFile::~TempFile() { std::remove(path_.c_str()); }

std::uint64_t digest(std::span<const bds::ElementId> solution, double value) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const bds::ElementId x : solution) mix(x);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  mix(bits);
  return h;
}

}  // namespace bench
