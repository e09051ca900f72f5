/* A bare loopback TCP request/reply pair: the host's floor under the
 * serving loop's send, recv and ppoll calls, for
 * scripts/serve_syscall_split.py --floor.
 *
 *   cc -O2 scripts/loopback_floor.c -o loopback_floor
 *   loopback_floor server <timeout_us> <cpu>
 *   loopback_floor client <port> <rate> <seconds> <cpu>
 *
 * The server listens on 127.0.0.1 (an ephemeral port, printed as
 * "LISTENING <port>"), accepts one connection and loops: ppoll(2) on the
 * socket (no timeout when <timeout_us> is 0, else that many microseconds,
 * re-armed on every call as a serving loop's next-event timer is), one
 * recv(2) of what is there, and one send(2) of a 32-byte reply per 32-byte
 * request. It exits normally when the client closes, so an LD_PRELOAD shim
 * (scripts/syscall_shim.c) can report its calls at exit.
 *
 * The client connects and sends one 32-byte request at each due time of a
 * fixed <rate> per second for <seconds>, sleeping until it is due, and
 * blocks on its reply before the next; it prints one JSON object
 * {"requests": n, "late": m} (m requests left after their due time had
 * passed by more than one period). Each side pins itself to CPU <cpu>
 * (sched_setaffinity on its own process; -1 leaves it unpinned), so the
 * pair runs on two CPUs. Both set TCP_NODELAY.
 */
#define _GNU_SOURCE
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

enum { kFrame = 32 };

static void die(const char* what) {
  perror(what);
  exit(1);
}

static void pin(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) die("sched_setaffinity");
}

static void no_delay(int fd) {
  const int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    die("setsockopt");
  }
}

static int serve(long timeout_us, int cpu) {
  pin(cpu);
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) die("socket");
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(lfd, (struct sockaddr*)&addr, sizeof(addr)) != 0) die("bind");
  if (listen(lfd, 1) != 0) die("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(lfd, (struct sockaddr*)&addr, &len) != 0) die("getsockname");
  printf("LISTENING %d\n", ntohs(addr.sin_port));
  fflush(stdout);
  const int fd = accept(lfd, NULL, NULL);
  if (fd < 0) die("accept");
  close(lfd);
  no_delay(fd);
  const struct timespec timeout = {timeout_us / 1000000,
                                   (timeout_us % 1000000) * 1000};
  char buf[64 * kFrame];
  char reply[kFrame];
  memset(reply, 'r', sizeof(reply));
  size_t pending = 0; /* bytes of a request read so far */
  for (;;) {
    struct pollfd p = {fd, POLLIN, 0};
    const int ready = ppoll(&p, 1, timeout_us > 0 ? &timeout : NULL, NULL);
    if (ready < 0 && errno != EINTR) die("ppoll");
    if (ready <= 0) continue;
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      die("recv");
    }
    pending += (size_t)n;
    for (; pending >= kFrame; pending -= kFrame) {
      if (send(fd, reply, sizeof(reply), 0) != (ssize_t)sizeof(reply)) {
        die("send");
      }
    }
  }
  close(fd);
  return 0;
}

static uint64_t now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
}

static int client(int port, double rate, double seconds, int cpu) {
  pin(cpu);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket");
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons((uint16_t)port);
  if (connect(fd, (struct sockaddr*)&addr, sizeof(addr)) != 0) die("connect");
  no_delay(fd);
  char request[kFrame];
  char reply[kFrame];
  memset(request, 'q', sizeof(request));
  const uint64_t period = (uint64_t)(1e9 / rate);
  const uint64_t count = (uint64_t)(rate * seconds);
  const uint64_t start = now_ns();
  uint64_t late = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t due = start + i * period;
    const uint64_t now = now_ns();
    if (now < due) {
      const struct timespec wait = {(time_t)((due - now) / 1000000000u),
                                    (long)((due - now) % 1000000000u)};
      nanosleep(&wait, NULL);
    } else if (now - due > period) {
      ++late;
    }
    if (send(fd, request, sizeof(request), 0) != (ssize_t)sizeof(request)) {
      die("send");
    }
    size_t got = 0;
    while (got < sizeof(reply)) {
      const ssize_t n = recv(fd, reply + got, sizeof(reply) - got, 0);
      if (n <= 0) die("recv");
      got += (size_t)n;
    }
  }
  close(fd);
  printf("{\"requests\": %llu, \"late\": %llu}\n", (unsigned long long)count,
         (unsigned long long)late);
  return 0;
}

int main(int argc, char** argv) {
  if (argc == 4 && strcmp(argv[1], "server") == 0) {
    return serve(atol(argv[2]), atoi(argv[3]));
  }
  if (argc == 6 && strcmp(argv[1], "client") == 0) {
    return client(atoi(argv[2]), atof(argv[3]), atof(argv[4]), atoi(argv[5]));
  }
  fprintf(stderr,
          "usage: %s server <timeout_us> <cpu>\n"
          "       %s client <port> <rate> <seconds> <cpu>\n",
          argv[0], argv[0]);
  return 2;
}
