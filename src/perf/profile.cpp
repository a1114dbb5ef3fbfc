#include "perf/profile.h"

#include <sys/resource.h>

#include "support/json.h"
#include "support/strings.h"
#include "support/table.h"

namespace hicsync::perf {

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

void PassTimer::add(std::string_view name, std::uint64_t wall_ns) {
  for (Phase& p : phases_) {
    if (p.name == name) {
      p.wall_ns += wall_ns;
      ++p.calls;
      return;
    }
  }
  phases_.push_back(Phase{std::string(name), wall_ns, 1});
}

void PassTimer::set_count(std::string_view name, std::uint64_t value) {
  for (auto& [n, v] : counts_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  counts_.emplace_back(std::string(name), value);
}

std::uint64_t PassTimer::total_wall_ns() const {
  std::uint64_t total = 0;
  for (const Phase& p : phases_) total += p.wall_ns;
  return total;
}

trace::MetricsRegistry PassTimer::registry() const {
  trace::MetricsRegistry reg;
  for (const Phase& p : phases_) {
    reg.counter("pass." + p.name + ".wall_us").add(p.wall_ns / 1000);
    reg.counter("pass." + p.name + ".calls").add(p.calls);
  }
  for (const auto& [name, value] : counts_) {
    reg.counter("nodes." + name).add(value);
  }
  reg.counter("mem.peak_rss_kb").add(peak_rss_bytes() / 1024);
  return reg;
}

std::string PassTimer::text() const {
  const std::uint64_t total = total_wall_ns();
  std::string out = "=== hic-perf compile profile ===\n";
  support::TextTable table({"pass", "wall ms", "share", "calls"});
  for (const Phase& p : phases_) {
    double share = total == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(p.wall_ns) /
                             static_cast<double>(total);
    table.add_row({p.name,
                   support::format("%.3f", p.wall_ns / 1e6),
                   support::format("%.1f%%", share),
                   std::to_string(p.calls)});
  }
  out += table.str();
  out += support::format("total: %.3f ms\n", total / 1e6);
  if (!counts_.empty()) {
    out += "node counts:\n";
    for (const auto& [name, value] : counts_) {
      out += support::format("  %-24s %llu\n", name.c_str(),
                             static_cast<unsigned long long>(value));
    }
  }
  out += support::format("peak RSS: %.1f MiB\n",
                         static_cast<double>(peak_rss_bytes()) /
                             (1024.0 * 1024.0));
  return out;
}

std::string PassTimer::json() const {
  support::JsonWriter w;
  w.begin_object();
  w.key("passes").begin_array();
  for (const Phase& p : phases_) {
    w.begin_object()
        .key("name")
        .value(p.name)
        .key("wall_ns")
        .value(p.wall_ns)
        .key("calls")
        .value(p.calls)
        .end_object();
  }
  w.end_array();
  w.key("total_wall_ns").value(total_wall_ns());
  w.key("nodes").begin_object();
  for (const auto& [name, value] : counts_) {
    w.key(name).value(value);
  }
  w.end_object();
  w.key("peak_rss_bytes").value(peak_rss_bytes());
  w.key("registry").raw(registry().json());
  w.end_object();
  return w.str() + "\n";
}

}  // namespace hicsync::perf
