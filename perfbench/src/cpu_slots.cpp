// CPU-slot rotation for the measured runs (see CpuSlots in bench.h).

#include <sched.h>

#include <filesystem>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

void set_affinity(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(tid, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

std::vector<int> thread_ids() {
  std::vector<int> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(std::stoi(entry.path().filename().string()));
  }
  return tids;
}

CpuSlots::CpuSlots(std::size_t width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) all_.push_back(cpu);
  }
  const std::size_t n = all_.size();
  if (width >= n) {
    slots_.push_back(all_);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<int> slot;
    for (std::size_t j = 0; j < width; ++j) slot.push_back(all_[(k + j) % n]);
    slots_.push_back(std::move(slot));
  }
}

void CpuSlots::pin(std::size_t k, int tid) const { set_affinity(tid, slots_.at(k)); }

void CpuSlots::unpin(int tid) const { set_affinity(tid, all_); }

double slot_percentile(const std::vector<std::vector<double>>& per_slot,
                       double p) {
  double sum = 0.0;
  std::size_t used = 0;
  for (const std::vector<double>& samples : per_slot) {
    if (samples.empty()) continue;
    sum += percentile(samples, p);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

}  // namespace perfbench
