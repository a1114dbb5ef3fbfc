// Paired-floor timing for the overhead gates.
//
// A gate compares a base part (say, 400 untraced simulator steps) with a
// treated part (the same steps with an empty trace bus attached). Noise
// from the machine only ever adds time, so each side's cheapest part is
// its best estimate. The method:
//   - the process is pinned to the core it starts on;
//   - each part is timed in CPU time, so preemption is not counted: thread
//     CPU time for a part that runs on the calling thread, process CPU
//     time for one that hands its work to threads of its own;
//   - a round runs every part several times, and the part that goes first
//     rotates from round to round, so warm-cache order bias cancels;
//   - each part's floor per round is its cheapest run in that round;
//   - the gate reads the median over rounds, printed with the
//     interquartile range next to it.
#pragma once

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

namespace hicsync::overhead {

inline constexpr int kMinRounds = 15;

/// Pins the calling thread, and so every thread it starts later, to the
/// core it runs on. Returns the core, or -1 when it could not be pinned.
inline int pin_to_current_core() {
  const int core = ::sched_getcpu();
  if (core < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? core : -1;
}

/// CPU time of one call to `part` on `clock`, in ns.
inline double time_ns(const std::function<void()>& part, clockid_t clock) {
  timespec t0{};
  timespec t1{};
  ::clock_gettime(clock, &t0);
  part();
  ::clock_gettime(clock, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e9 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

/// Makes `*p` observable, so a timed loop over it is not folded away.
template <class T>
inline void keep(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// floors[r][k] is part k's cheapest of `reps` runs in round r, over
/// `rounds` rounds (at least kMinRounds), each run timed on `clock`.
/// `prepare(k)`, when given, runs untimed before each run of part k.
inline std::vector<std::vector<double>> round_floors(
    const std::vector<std::function<void()>>& parts, int rounds, int reps,
    clockid_t clock = CLOCK_THREAD_CPUTIME_ID,
    const std::function<void(std::size_t)>& prepare = {}) {
  std::vector<std::vector<double>> floors;
  for (int r = 0; r < std::max(rounds, kMinRounds); ++r) {
    std::vector<double> floor(parts.size(),
                              std::numeric_limits<double>::infinity());
    for (int i = 0; i < reps; ++i) {
      for (std::size_t j = 0; j < parts.size(); ++j) {
        const std::size_t k = (j + static_cast<std::size_t>(r)) % parts.size();
        if (prepare) prepare(k);
        floor[k] = std::min(floor[k], time_ns(parts[k], clock));
      }
    }
    floors.push_back(floor);
  }
  return floors;
}

/// Prints the median and the quartiles (nearest rank) of `v`; returns the
/// median.
inline double print_median(const char* what, std::vector<double> v,
                           const char* unit, double limit) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::printf("%s: median %.3f %s, IQR [%.3f, %.3f] %s (limit %g %s)\n", what,
              v[n / 2], unit, v[n / 4], v[3 * n / 4], unit, limit, unit);
  return v[n / 2];
}

}  // namespace hicsync::overhead
