// KeepAwake: idle-priority spinners that keep a pinned run's CPUs busy
// (see bench.hpp for why).
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <latch>
#include <mutex>

#include "bench.hpp"

namespace cloudbench {

namespace {

/// CPU clocks of the running spinners.
std::mutex spinner_mu;
std::vector<clockid_t> spinner_clocks;

}  // namespace

KeepAwake::KeepAwake() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  CS_REQUIRE(sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
             "sched_getaffinity");
  std::latch ready(CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu, &ready] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param idle{};
      clockid_t id;
      // No spinner at all where one could compete with the run.
      const bool spin = sched_setaffinity(0, sizeof(one), &one) == 0 &&
                        sched_setscheduler(0, SCHED_IDLE, &idle) == 0 &&
                        pthread_getcpuclockid(pthread_self(), &id) == 0;
      if (spin) {
        std::lock_guard<std::mutex> lock(spinner_mu);
        spinner_clocks.push_back(id);
      }
      ready.count_down();
      while (spin && !stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      if (spin) {
        std::lock_guard<std::mutex> lock(spinner_mu);
        std::erase(spinner_clocks, id);  // the clock ends with the thread
      }
    });
  }
  ready.wait();
}

KeepAwake::~KeepAwake() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

double KeepAwake::spun_seconds() {
  std::lock_guard<std::mutex> lock(spinner_mu);
  double s = 0.0;
  for (clockid_t id : spinner_clocks) {
    timespec ts{};
    if (clock_gettime(id, &ts) == 0) {
      s += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    }
  }
  return s;
}

}  // namespace cloudbench
