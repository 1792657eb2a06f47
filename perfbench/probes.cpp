#include "probes.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Fields of /proc/<pid>/stat after the command name: index 0 is the state
/// (field 3 of proc(5)), so ppid is [1], utime [11], stime [12].
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return {};
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(line.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;
}

std::vector<pid_t> live_children() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0' || pid <= 0) continue;
    const std::vector<std::string> f = stat_fields(static_cast<pid_t>(pid));
    if (f.size() > 12 && std::atol(f[1].c_str()) == self)
      out.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(dir);
  return out;
}

/// VmHWM of \p pid in MB (0 when unreadable).
double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

}  // namespace

double process_tree_cpu_seconds() {
  rusage self{}, reaped{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &reaped);
  double total = timeval_seconds(self.ru_utime) + timeval_seconds(self.ru_stime) +
                 timeval_seconds(reaped.ru_utime) + timeval_seconds(reaped.ru_stime);
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (const pid_t pid : live_children()) {
    const std::vector<std::string> f = stat_fields(pid);
    if (f.size() > 12)
      total += (std::atof(f[11].c_str()) + std::atof(f[12].c_str())) / tick;
  }
  return total;
}

double process_tree_peak_rss_mb() {
  rusage reaped{};
  ::getrusage(RUSAGE_CHILDREN, &reaped);
  double peak = std::max(vm_hwm_mb(::getpid()), static_cast<double>(reaped.ru_maxrss) / 1024.0);
  for (const pid_t pid : live_children()) peak = std::max(peak, vm_hwm_mb(pid));
  return peak;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::open(const char* name, int64_t job, int64_t parent) {
  if (!enabled_) return -1;
  const double t = now_seconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, job, parent, t, t});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::close(int64_t index) {
  if (index < 0) return;
  const double t = now_seconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = t;
}

int64_t Tracer::add(const char* name, int64_t job, int64_t parent, double start, double end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, job, parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
