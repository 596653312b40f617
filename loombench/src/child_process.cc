#include "child_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace loombench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path, bool pipe_stdout) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int log = -1;
  if (!log_path.empty()) {
    log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (log < 0) throw std::runtime_error("cannot open " + log_path);
  }
  int out[2] = {-1, -1};
  if (pipe_stdout && ::pipe2(out, O_CLOEXEC) != 0) {
    if (log >= 0) ::close(log);
    throw std::runtime_error("cannot create a pipe");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (pipe_stdout) ::dup2(out[1], STDOUT_FILENO);
    else if (log >= 0) ::dup2(log, STDOUT_FILENO);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (log >= 0) ::close(log);
  if (pipe_stdout) {
    ::close(out[1]);
    stdout_fd_ = out[0];
  }
  if (pid_ < 0) {
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    throw std::runtime_error("fork failed");
  }
}

ChildProcess::~ChildProcess() {
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

std::string ChildProcess::ReadStdout() {
  std::string text;
  char buf[4096];
  while (stdout_fd_ >= 0) {
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }
  return text;
}

bool ChildProcess::Wait(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0 || NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace loombench
