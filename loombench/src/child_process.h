// A child process the benchmark starts with fork/execv (the offline ingest
// child and loom_serve) and that cannot outlive it.

#ifndef LOOMBENCH_CHILD_PROCESS_H_
#define LOOMBENCH_CHILD_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace loombench {

/// Runs argv[0] with `argv`, no shell involved. The child gets SIGKILL if the
/// benchmark dies, and the destructor kills and reaps it if still running.
class ChildProcess {
 public:
  /// `log_path` (appended) takes the child's stderr, and its stdout unless
  /// `pipe_stdout`; empty keeps the benchmark's own stderr. With
  /// `pipe_stdout` the parent reads the child's stdout via ReadStdout().
  /// Throws std::runtime_error if the child cannot be started.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path, bool pipe_stdout = false);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Everything the child writes to stdout, until it closes it (piped
  /// children only).
  std::string ReadStdout();

  /// Waits up to `timeout_s` for the exit; true when it exited with status 0.
  bool Wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

}  // namespace loombench

#endif  // LOOMBENCH_CHILD_PROCESS_H_
