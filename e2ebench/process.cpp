#include "process.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace e2e {

std::string self_exe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

std::string self_exe_dir() {
  return std::filesystem::path(self_exe()).parent_path().string();
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, args[0], nullptr, nullptr, args.data(), environ);
  if (rc != 0)
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
}

ChildProcess::~ChildProcess() {
  if (reaped_ || pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool ChildProcess::exited() {
  if (reaped_) return true;
  int status = 0;
  rusage ru{};
  const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
  if (r != pid_) return false;
  reaped_ = true;
  exit_.code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  exit_.max_rss_kb = ru.ru_maxrss;
  return true;
}

ChildProcess::Exit ChildProcess::wait(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (!exited()) {
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      while (!exited()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      throw std::runtime_error("child process " + std::to_string(pid_) +
                               " timed out and was killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return exit_;
}

void ChildProcess::signal(int sig) const {
  if (!reaped_) ::kill(pid_, sig);
}

}  // namespace e2e
