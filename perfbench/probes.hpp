// Measurement probes of the perfbench runner: process-tree CPU and memory
// read from /proc, and the in-memory span recorder of a traced run.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CPU seconds (user + system) of this process, its live children, and the
/// children it has already reaped. Worker processes of an isolated daemon
/// are children of the runner, so the difference of two readings is the
/// CPU the whole system under test spent in between.
double process_tree_cpu_seconds();

/// Largest peak resident set (VmHWM) in MB over this process, its live
/// children, and its reaped children.
double process_tree_peak_rss_mb();

/// Resets this process's VmHWM to its current RSS, so input generation
/// done before the system under test starts does not count as its peak.
/// Returns false when the kernel refuses.
bool reset_peak_rss();

/// Monotonic seconds since an arbitrary fixed origin (steady_clock).
double now_seconds();

/// One traced interval. `parent` indexes the enclosing span of the same
/// job (-1 for a root); `job` groups the spans of one job.
struct Span {
  std::string name;
  int64_t job = -1;
  int64_t parent = -1;
  double start = 0;
  double end = 0;
};

/// Thread-safe span store. A disabled tracer records nothing and costs one
/// branch per span, which is the untraced configuration.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Not synchronised: call only while no client thread is running.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span and returns its index (-1 when disabled).
  int64_t open(const char* name, int64_t job, int64_t parent);
  /// Closes span \p index (ignored when -1).
  void close(int64_t index);
  /// Records a finished span with explicit times (index, or -1).
  int64_t add(const char* name, int64_t job, int64_t parent, double start, double end);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t job, int64_t parent = -1)
      : tracer_(tracer), index_(tracer.open(name, job, parent)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int64_t index_;
};

}  // namespace perfbench
