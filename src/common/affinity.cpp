#include "src/common/affinity.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pragmalist {

int hardware_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int affinity_cpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
    return CPU_COUNT(&mask) > 0 ? CPU_COUNT(&mask) : 1;
#endif
  return hardware_cpus();
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  const int n = hardware_cpus();
  if (cpu < 0) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<unsigned>(cpu % n), &mask);
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace pragmalist
