#include "conc/wake_fd.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace sjs::conc {

WakeFd::WakeFd() {
  fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
}

WakeFd::~WakeFd() { ::close(fd_); }

void WakeFd::signal() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated — a wakeup is already pending,
  // which is all signal() promises.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
}

void WakeFd::drain() {
  // A non-semaphore eventfd read returns the whole counter and zeroes it,
  // so one read consumes every pending signal (EAGAIN when there was none).
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
}

}  // namespace sjs::conc
