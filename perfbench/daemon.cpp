#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

std::uint16_t parseBannerPort(const std::string& line) {
  if (line.rfind("asdf_rpcd: serving ", 0) != 0) return 0;
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos || colon + 1 >= line.size()) return 0;
  char* end = nullptr;
  const long port = std::strtol(line.c_str() + colon + 1, &end, 10);
  if (end == line.c_str() + colon + 1 || port <= 0 || port > 65535) return 0;
  return static_cast<std::uint16_t>(port);
}

namespace {

/// Reads one line from `fd` before `deadline`; false on EOF or timeout.
bool readLine(int fd, std::chrono::steady_clock::time_point deadline,
              std::string& line) {
  line.clear();
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char c = 0;
    const ssize_t got = ::read(fd, &c, 1);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

}  // namespace

RpcdProcess::RpcdProcess(const std::string& binary,
                         std::vector<std::string> args,
                         double timeoutSeconds) {
  args.insert(args.begin(), binary);
  args.push_back("--port=0");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipeFds[2];
  if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
    throw std::runtime_error("rpcd: pipe failed");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipeFds[0]);
    ::close(pipeFds[1]);
    throw std::runtime_error("rpcd: fork failed");
  }
  if (pid_ == 0) {
    // Child: die with the benchmark, report on the pipe.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipeFds[1], STDOUT_FILENO);
    ::close(pipeFds[0]);
    ::close(pipeFds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipeFds[1]);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeoutSeconds));
  std::string line;
  while (port_ == 0 && readLine(pipeFds[0], deadline, line)) {
    port_ = parseBannerPort(line);
  }
  // The daemon's later stdout (its exit summary) goes to a closed
  // pipe; it ignores SIGPIPE, so that costs it nothing.
  ::close(pipeFds[0]);
  if (port_ == 0) {
    stop();
    throw std::runtime_error("rpcd: no banner from " + binary);
  }
}

RpcdProcess::~RpcdProcess() { stop(); }

void RpcdProcess::connectOnce() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("rpcd: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("rpcd: connect refused");
}

void RpcdProcess::stop() {
  if (pid_ <= 0) return;
  // The daemon serves from memory and records nothing here, so there
  // is no state to flush: kill it outright (its SIGTERM handler only
  // takes effect once the event loop wakes up).
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

}  // namespace perfbench
