// Child processes of the benchmark: the stream child (this binary with
// --child) and the meralignerd daemon. Every child is reaped — on success,
// failure and timeout alike — so a run never leaves a process behind.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

/// Directory of the running executable (the build directory).
[[nodiscard]] std::string self_exe_dir();
[[nodiscard]] std::string self_exe();

/// A spawned child; the destructor kills and reaps it if still running.
class ChildProcess {
 public:
  /// argv[0] is the program path. Throws when the spawn fails.
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  struct Exit {
    int code = -1;         ///< exit code, or -signal when killed by one
    long max_rss_kb = 0;   ///< the child's own ru_maxrss (wait4)
  };
  /// Waits up to timeout_s; on timeout kills the child and throws.
  Exit wait(double timeout_s);
  /// True once the child has exited (reaps it without blocking).
  [[nodiscard]] bool exited();
  void signal(int sig) const;

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  Exit exit_{};
};

}  // namespace e2e
