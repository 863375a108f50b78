// CPU topology queries and thread pinning. Pinning is best effort: on
// platforms without pthread affinity (or when the mask is rejected) the
// call is a no-op and the benchmark still runs, just unpinned.
#pragma once

namespace pragmalist {

/// Number of logical CPUs visible to this process (at least 1).
int hardware_cpus();

/// Number of CPUs the calling thread may run on: its affinity mask,
/// which `taskset` or a container may narrow below hardware_cpus()
/// (at least 1).
int affinity_cpus();

/// Pin the calling thread to `cpu` (modulo the visible CPU count).
/// Returns true if the affinity mask was applied.
bool pin_current_thread(int cpu);

}  // namespace pragmalist
