// cloudbench: one workload run of the CloudShield end-to-end benchmark.
//
//   cloudbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--reps <n>] [--corrupt-expected]
//
// --reps sets how many times a run sets up and (at least) restarts
// (default 5 set-ups and 4 restarts; setup_s and recover_s are medians
// over them).
//
// `cloudbench --recovery-rss <dir> <shards>` is the child process a traced
// run starts to measure metadata.rss_bytes_per_chunk (see workloads.cpp).
//
// Prints a report line (host, live set, pool sizes, the per-op-type view)
// and, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any op failed, any byte differed or the restart was not
// clean; 2 on a bad command line.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "crypto/gf256_kernels.hpp"

namespace {

using namespace cloudbench;
namespace fs = std::filesystem;

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": {\"value\": " + json_num(metric.value) +
           ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return out + "}";
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the last `n` CPUs it may run on (the first CPU tends to take the most
/// interrupts). Returns the CPUs kept, as a list.
std::string pin_to_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  CS_REQUIRE(sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
             "sched_getaffinity");
  cpu_set_t keep;
  CPU_ZERO(&keep);
  std::string kept;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n > 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &keep);
    kept = std::to_string(c) + (kept.empty() ? "" : ",") + kept;
    --n;
  }
  CS_REQUIRE(sched_setaffinity(0, sizeof(keep), &keep) == 0, "sched_setaffinity");
  return kept;
}

/// CPU jiffies from /proc/stat, summed over the CPUs the calling thread
/// may run on.
struct CpuJiffies {
  double steal = 0.0;  ///< the hypervisor ran someone else
  double total = 0.0;  ///< user nice system idle iowait irq softirq steal
};

CpuJiffies cpu_jiffies() {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  if (sched_getaffinity(0, sizeof(mine), &mine) != 0) CPU_ZERO(&mine);
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line) && line.rfind("cpu", 0) == 0) {
    // Per-CPU lines only ("cpu<N> user nice system idle iowait irq softirq
    // steal ..."; guest time is already inside user), and only the CPUs
    // this run may use.
    int cpu = -1;
    double v[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %lf %lf %lf %lf %lf %lf %lf %lf", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 9 ||
        cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &mine)) {
      continue;
    }
    for (double x : v) j.total += x;
    j.steal += v[7];
  }
  return j;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// "yes" / "no" for a CPUID feature bit; "n/a" off x86.
std::string cpu_has(unsigned leaf, unsigned subleaf, int reg, unsigned bit) {
#if defined(__x86_64__) || defined(__i386__)
  unsigned r[4] = {0, 0, 0, 0};
  if (__get_cpuid_count(leaf, subleaf, &r[0], &r[1], &r[2], &r[3]) == 0) return "no";
  return (r[reg] >> bit) & 1u ? "yes" : "no";
#else
  (void)leaf, (void)subleaf, (void)reg, (void)bit;
  return "n/a";
#endif
}

int usage(const std::string& why) {
  std::cerr << "cloudbench: " << why << "\n"
            << "usage: cloudbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reps <n>] [--corrupt-expected]\n"
            << "workloads:";
  for (const WorkloadSpec& w : workload_specs()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--recovery-rss") {
    return recovery_rss_child(argv[2], std::strtoul(argv[3], nullptr, 10));
  }
  RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    try {
      if (a == "--workload" && (v = next())) {
        workload = v;
      } else if (a == "--seed" && (v = next())) {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds" && (v = next())) {
        opt.seconds = std::stod(v);
      } else if (a == "--trace" && (v = next())) {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--reps" && (v = next())) {
        opt.setup_reps = opt.recover_reps = std::stoul(v);
      } else if (a == "--corrupt-expected") {
        opt.corrupt_expected = true;
      } else {
        return usage("bad argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a);
    }
  }
  for (const WorkloadSpec& w : workload_specs()) {
    if (w.name == workload) opt.spec = &w;
  }
  if (opt.spec == nullptr) return usage("unknown workload '" + workload + "'");
  if (!(opt.seconds > 0.0) || opt.setup_reps == 0) return usage("bad run length or reps");

  // Scratch state lives inside the working directory (the checkout).
  const fs::path work = fs::path(".bench_work") /
                        (workload + "-" + std::to_string(getpid()));
  fs::create_directories(work);
  opt.work_dir = work.string();
  if (opt.trace) {
    fs::create_directories(".bench_out");
    opt.spans_path = ".bench_out/spans-" + workload + ".jsonl";
    opt.metrics_path = ".bench_out/metrics-" + workload + ".prom";
  }

  // Pin before anything starts, so every thread of the run inherits the
  // CPU budget and host.steal_frac covers exactly the CPUs it used. A
  // pinned run keeps its CPUs from idling for as long as it lasts.
  const std::string cpus = opt.spec->cpus > 0 ? pin_to_cpus(opt.spec->cpus) : "all";
  std::optional<KeepAwake> awake;
  if (opt.spec->cpus > 0) awake.emplace();
  const CpuJiffies j0 = cpu_jiffies();
  RunResult r = run_workload(opt);
  const CpuJiffies j1 = cpu_jiffies();
  const double steal =
      j1.total > j0.total ? (j1.steal - j0.steal) / (j1.total - j0.total) : 0.0;
  std::error_code ec;
  const std::string journal_fs = fs_type(work.string());
  fs::remove_all(work, ec);
  fs::remove(work.parent_path(), ec);  // only if no other run is using it

  // Host, recorded beside every run.
  std::map<std::string, std::string> host;
  host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  host["gf256_arm"] =
      std::string(cpu::simd_level_name(gf256::kernels::active_arm()));
  host["aes_ni"] = cpu_has(1, 0, 2, 25);
  host["sha_ni"] = cpu_has(7, 0, 1, 29);
  host["journal_fs"] = journal_fs;
  host["cpus"] = cpus;
  host["keep_awake"] = awake.has_value() ? "yes" : "no";
  host["host.steal_frac"] = json_num(steal);

  if (!opt.trace) {
    r.named["error_rate"] = Metric{
        r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                        : 1.0,
        "fraction"};
  }
  auto json_map = [](const std::map<std::string, std::string>& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
      if (out.size() > 1) out += ", ";
      out += json_str(k) + ": " + json_str(v);
    }
    return out + "}";
  };
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_str(f);
  }
  failures += "]";
  std::cout << "{\"report\": {\"workload\": " << json_str(workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << json_num(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": " << json_map(host)
            << ", \"run\": " << json_map(r.info) << ", \"by_op_type\": "
            << json_metrics(r.named) << ", \"failures\": " << failures;
  if (opt.trace) {
    std::cout << ", \"spans\": " << json_str(opt.spans_path)
              << ", \"metrics\": " << json_str(opt.metrics_path);
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << json_metrics(opt.trace ? r.layers : r.e2e)
            << "}" << std::endl;
  return r.correct ? 0 : 1;
}
