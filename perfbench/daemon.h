// A child asdf_rpcd process for the live workload.
//
// The daemon is started with --port=0; the constructor reads the port
// it bound from its banner. The destructor terminates and reaps it, so
// every exit path of the benchmark (normal return, exception) stops
// the daemon, and the child also gets SIGKILL if the benchmark itself
// dies first.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class RpcdProcess {
 public:
  /// Starts `binary` with `args` (plus --port=0) and waits up to
  /// `timeoutSeconds` for its banner. Throws std::runtime_error when
  /// the daemon cannot be started or prints no port.
  RpcdProcess(const std::string& binary, std::vector<std::string> args,
              double timeoutSeconds = 30.0);
  ~RpcdProcess();
  RpcdProcess(const RpcdProcess&) = delete;
  RpcdProcess& operator=(const RpcdProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Opens (and closes) one TCP connection to the daemon; throws when
  /// it refuses.
  void connectOnce() const;

  /// Kills and reaps the daemon. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Parses the port from an asdf_rpcd banner line
/// ("asdf_rpcd: serving ... on 127.0.0.1:PORT"); 0 when the line is
/// not a banner.
std::uint16_t parseBannerPort(const std::string& line);

}  // namespace perfbench
