// Fixture: poll-outside-wait-fds. Blocking polls in src/serve/ outside
// serve::wait_fds must be flagged; a zero-timeout check and a suppressed
// wait must stay silent.
#include <poll.h>
#include <sys/epoll.h>

int park(pollfd* pfd, int timeout_ms, int epfd, epoll_event* evs) {
  ::poll(pfd, 1, timeout_ms);        // finding 1: a millisecond wait
  ppoll(pfd, 1, nullptr, nullptr);   // finding 2: ppoll outside the helper
  epoll_wait(epfd, evs, 8, 5);       // finding 3
  ::poll(pfd, 1, 0);                 // ok: nonblocking check
  epoll_wait(epfd, evs, 8, 0);       // ok: nonblocking check
  // sjs-lint: allow(poll-outside-wait-fds): fixture exercising suppression
  return ::poll(nullptr, 0, 1);
}
