// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds 10 --trace <0|1>
//             [--spans <path>] [--commit <id>]
//
// Prints two JSON lines on stdout.  The first is the run's record: the
// host, build and workload parameters, and every metric measured with its
// unit and sample count.  The last is the result line:
//
//   {"attempted": A, "correct": B, "failed": F,
//    "metrics": {"<name>": {"unit": U, "value": V}, ...}}
//
// with the end-to-end metrics untraced and the per-layer metrics traced.
// Exits 0 when every output check passed, 1 when one failed, 2 on a usage
// error (nothing printed).  perfbench/run.py builds this binary and runs it.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/json.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "cold_fig13", "hot_zipf", "rw_open", "recluster_epochs"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  if (options.workload == "cold_fig13") return ColdFig13(options);
  if (options.workload == "hot_zipf") return HotZipf(options);
  if (options.workload == "rw_open") return RwOpen(options);
  return ReclusterEpochs(options);
}

}  // namespace perfbench

namespace {

using cobra::obs::JsonValue;

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop the NUL padding
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string Host() {
  char name[256] = {};
  if (gethostname(name, sizeof(name) - 1) != 0) return "unknown";
  return name;
}

JsonValue MetricsJson(const std::map<std::string, perfbench::Metric>& metrics,
                      bool with_samples) {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [name, metric] : metrics) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("value", metric.value);
    m.Set("unit", metric.unit);
    if (with_samples) m.Set("samples", metric.samples);
    out.Set(name, std::move(m));
  }
  return out;
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds %d --trace <0|1> [--spans <path>] [--commit <id>]\n"
               "workloads:",
               why.c_str(), perfbench::kRunSeconds);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("bad --seed " + value);
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      // The window length is part of the benchmark's definition.
      if (!ParseUint(value, &n) ||
          n != static_cast<uint64_t>(perfbench::kRunSeconds)) {
        return Usage("--seconds must be " +
                     std::to_string(perfbench::kRunSeconds));
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage("unknown workload " + options.workload);
  }

  perfbench::Report report = perfbench::RunWorkload(options);

  JsonValue record = JsonValue::MakeObject();
  record.Set("host", Host());
  record.Set("nproc", Nproc());
  record.Set("cpu_model", CpuModel());
  record.Set("build_type", PERFBENCH_BUILD_TYPE);
  record.Set("compiler", std::string("g++ ") + __VERSION__);
  record.Set("commit", commit);
  record.Set("workload", options.workload);
  record.Set("seed", options.seed);
  record.Set("check_seed", perfbench::kCheckSeed);
  record.Set("trace", options.trace);
  record.Set("run_seconds", perfbench::kRunSeconds);
  record.Set("params", report.params);
  record.Set("metrics", MetricsJson(report.metrics, true));
  record.Set("workload_metrics", MetricsJson(report.extra, true));
  record.Set("detail", report.detail);
  JsonValue failures = JsonValue::MakeArray();
  for (const std::string& f : report.failures) failures.Append(f);
  record.Set("failures", std::move(failures));
  JsonValue wrapped = JsonValue::MakeObject();
  wrapped.Set("record", std::move(record));
  std::printf("%s\n", wrapped.Dump().c_str());

  JsonValue result = JsonValue::MakeObject();
  result.Set("correct", report.correct);
  result.Set("attempted", report.attempted);
  result.Set("failed", report.failed);
  result.Set("metrics", MetricsJson(report.metrics, false));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
