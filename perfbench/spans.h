// Span recording for the benchmark's own programs. Each span times one call
// into a layer's public functions from outside the library, so the traced
// run attributes wall time to layers without any instrumentation inside
// the program under test. Spans stay in memory and are written once, as
// JSON, when the program ends.

#ifndef SPAMMASS_PERFBENCH_SPANS_H_
#define SPAMMASS_PERFBENCH_SPANS_H_

#include <sys/resource.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "util/json_writer.h"

namespace perfbench {

/// "release" when assertions are compiled out, as in the repo's benches.
inline const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// User plus system CPU seconds of this process so far.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Named wall-time spans, in execution order. A disabled recorder runs the
/// timed calls without reading the clock, so the untraced mode of a
/// program pays nothing for tracing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` and adds its wall time to the span `name`.
  template <typename Fn>
  decltype(auto) Time(const std::string& name, Fn&& fn) {
    if (!enabled_) return fn();
    struct Stop {
      Spans* spans;
      const std::string* name;
      std::chrono::steady_clock::time_point start;
      ~Stop() {
        spans->Add(*name, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
    } stop{this, &name, std::chrono::steady_clock::now()};
    return fn();
  }

  /// Adds `seconds` to span `name`, creating it on first use.
  void Add(const std::string& name, double seconds) {
    for (auto& [existing, total] : spans_) {
      if (existing == name) {
        total += seconds;
        return;
      }
    }
    spans_.emplace_back(name, seconds);
  }

  double Get(const std::string& name) const {
    for (const auto& [existing, total] : spans_) {
      if (existing == name) return total;
    }
    return 0;
  }

  void Write(spammass::util::JsonWriter* json) const {
    json->BeginObject();
    for (const auto& [name, seconds] : spans_) json->KV(name, seconds);
    json->EndObject();
  }

 private:
  bool enabled_;
  std::vector<std::pair<std::string, double>> spans_;
};

}  // namespace perfbench

#endif  // SPAMMASS_PERFBENCH_SPANS_H_
