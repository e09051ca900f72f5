/* LD_PRELOAD shim that counts and times a server's own socket and poll
 * calls, for scripts/serve_syscall_split.py.
 *
 *   cc -O2 -shared -fPIC scripts/syscall_shim.c -o syscall_shim.so -ldl
 *   SJS_SYSCALL_SHIM_OUT=split.json LD_PRELOAD=./syscall_shim.so sjs_serve ...
 *
 * Every wrapped call (send, sendto, sendmsg, recv, recvfrom, read, write,
 * writev, poll, ppoll, epoll_wait) is counted, and timed twice: wall time
 * (CLOCK_MONOTONIC, a vDSO read) and the calling thread's CPU time
 * (CLOCK_THREAD_CPUTIME_ID, itself a system call of well under a
 * microsecond, part of which lands inside each CPU figure). Counters are
 * process-wide atomics, so every thread's calls are summed. At exit the
 * totals are written as one JSON object to $SJS_SYSCALL_SHIM_OUT (stderr
 * when unset): {"<call>": {"calls": n, "wall_ns": w, "cpu_ns": c}, ...}.
 * The process must exit normally (sjs_serve drains and exits on SIGTERM).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

enum {
  kSend, kSendto, kSendmsg, kRecv, kRecvfrom, kRead, kWrite, kWritev,
  kPoll, kPpoll, kEpollWait, kCalls
};
static const char* const kNames[kCalls] = {
    "send", "sendto", "sendmsg", "recv", "recvfrom", "read",
    "write", "writev", "poll", "ppoll", "epoll_wait"};

struct Tally {
  uint64_t calls, wall_ns, cpu_ns;
};
static struct Tally tallies[kCalls];
static int reporting; /* set while the report is written: nothing counts */

static uint64_t now_ns(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (uint64_t)ts.tv_sec * 1000000000u + (uint64_t)ts.tv_nsec;
}

struct Span {
  uint64_t wall, cpu;
};

static struct Span span_begin(void) {
  struct Span s = {now_ns(CLOCK_MONOTONIC), now_ns(CLOCK_THREAD_CPUTIME_ID)};
  return s;
}

static void span_end(int call, struct Span s) {
  const uint64_t cpu = now_ns(CLOCK_THREAD_CPUTIME_ID) - s.cpu;
  const uint64_t wall = now_ns(CLOCK_MONOTONIC) - s.wall;
  if (__atomic_load_n(&reporting, __ATOMIC_RELAXED)) return;
  __atomic_fetch_add(&tallies[call].calls, 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&tallies[call].wall_ns, wall, __ATOMIC_RELAXED);
  __atomic_fetch_add(&tallies[call].cpu_ns, cpu, __ATOMIC_RELAXED);
}

static void* real(const char* name) {
  void* fn = dlsym(RTLD_NEXT, name);
  if (fn == NULL) abort();
  return fn;
}

/* WRAP(call index, return type, name, (params), (args)) */
#define WRAP(idx, ret, name, params, args)                    \
  ret name params {                                           \
    static ret(*fn) params;                                   \
    if (fn == NULL) fn = (ret(*) params)real(#name);          \
    const struct Span s = span_begin();                       \
    const ret r = fn args;                                    \
    span_end(idx, s);                                         \
    return r;                                                 \
  }

WRAP(kSend, ssize_t, send, (int fd, const void* buf, size_t n, int flags),
     (fd, buf, n, flags))
WRAP(kSendto, ssize_t, sendto,
     (int fd, const void* buf, size_t n, int flags,
      const struct sockaddr* addr, socklen_t len),
     (fd, buf, n, flags, addr, len))
WRAP(kSendmsg, ssize_t, sendmsg, (int fd, const struct msghdr* msg, int flags),
     (fd, msg, flags))
WRAP(kRecv, ssize_t, recv, (int fd, void* buf, size_t n, int flags),
     (fd, buf, n, flags))
WRAP(kRecvfrom, ssize_t, recvfrom,
     (int fd, void* buf, size_t n, int flags, struct sockaddr* addr,
      socklen_t* len),
     (fd, buf, n, flags, addr, len))
WRAP(kRead, ssize_t, read, (int fd, void* buf, size_t n), (fd, buf, n))
WRAP(kWrite, ssize_t, write, (int fd, const void* buf, size_t n),
     (fd, buf, n))
WRAP(kWritev, ssize_t, writev, (int fd, const struct iovec* iov, int n),
     (fd, iov, n))
WRAP(kPoll, int, poll, (struct pollfd* fds, nfds_t n, int timeout),
     (fds, n, timeout))
WRAP(kPpoll, int, ppoll,
     (struct pollfd* fds, nfds_t n, const struct timespec* timeout,
      const sigset_t* mask),
     (fds, n, timeout, mask))
WRAP(kEpollWait, int, epoll_wait,
     (int fd, struct epoll_event* events, int n, int timeout),
     (fd, events, n, timeout))

__attribute__((destructor)) static void report(void) {
  __atomic_store_n(&reporting, 1, __ATOMIC_RELAXED);
  const char* path = getenv("SJS_SYSCALL_SHIM_OUT");
  FILE* out = path != NULL ? fopen(path, "w") : stderr;
  if (out == NULL) return;
  fputc('{', out);
  for (int i = 0; i < kCalls; ++i) {
    fprintf(out,
            "%s\"%s\": {\"calls\": %llu, \"wall_ns\": %llu, \"cpu_ns\": %llu}",
            i ? ", " : "", kNames[i], (unsigned long long)tallies[i].calls,
            (unsigned long long)tallies[i].wall_ns,
            (unsigned long long)tallies[i].cpu_ns);
  }
  fputs("}\n", out);
  if (out != stderr) fclose(out);
}
