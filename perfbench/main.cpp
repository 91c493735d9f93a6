// perfbench: wall-clock benchmark of the MD-DSM middleware.
//
//   perfbench --workload <session_update|session_churn|cluster_wire>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that times calls into each layer from outside and prints the
// per-layer metrics instead. The last stdout line is the result object;
// the line before it records the run's metadata. Exits 1 when a
// correctness check fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <session_update|session_churn|"
               "cluster_wire> --seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

void Report::note(std::string key, double value) {
  meta.emplace_back(std::move(key), json_number(value));
}
void Report::note(std::string key, const std::string& value) {
  meta.emplace_back(std::move(key), json_string(value));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage(argv[0]);
    }
  }
  if (!(options.seconds > 0.0)) return usage(argv[0]);
  mdsm::set_log_level(mdsm::LogLevel::kOff);

  if (options.workload != "session_update" &&
      options.workload != "session_churn" &&
      options.workload != "cluster_wire") {
    return usage(argv[0]);
  }
  Report report;
  const CpuTicks before = cpu_ticks();
  if (options.workload == "session_update") {
    report = run_session_update(options);
  } else if (options.workload == "session_churn") {
    report = run_session_churn(options);
  } else {
    report = run_cluster_wire(options);
  }
  // Time the hypervisor ran other guests on this machine's CPUs during
  // the run: wall-clock figures from a run with high steal are noisy.
  const CpuTicks after = cpu_ticks();
  const double total = after.all - before.all;
  report.note("cpu_steal_pct",
              total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string meta = "{\"meta\": {\"workload\": " +
                     json_string(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"seconds\": " + json_number(options.seconds) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"commit\": " +
                     json_string(commit != nullptr ? commit : "unknown") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu_model\": " + json_string(cpu_model()) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : report.meta) {
    meta += ", " + json_string(key) + ": " + value;
  }
  meta += ", \"violations\": [";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    meta += (i == 0 ? "" : ", ") + json_string(report.violations[i]);
  }
  meta += "]}}";
  for (const auto& violation : report.violations) {
    std::fprintf(stderr, "perfbench: correctness violation: %s\n",
                 violation.c_str());
  }

  std::string result = std::string("{\"correct\": ") +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    result += (i == 0 ? "" : ", ") + json_string(metric.name) +
              ": {\"value\": " + json_number(metric.value) +
              ", \"unit\": " + json_string(metric.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", meta.c_str(), result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
