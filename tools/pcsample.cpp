// pcsample: a wall-clock program-counter sampler, loaded with LD_PRELOAD.
//
// gprof (-pg) charges time by call-graph arithmetic and misattributes it
// in code with many small inlined calls; this samples where the CPU
// actually is. A POSIX timer on CLOCK_MONOTONIC raises SIGPROF every
// 250 µs; the handler writes the interrupted instruction pointer, 8 raw
// bytes, straight to the output with write(), so no sample is lost when
// the program exits without running destructors. At start the library copies /proc/self/maps next
// to the samples, so tools/pcsample_report.py can map each address back
// to a function and source line with addr2line.
//
//   export PCSAMPLE_OUT=/tmp/run
//   LD_PRELOAD=build/tools/libpcsample.so build/tools/daelite_sim scenarios/video_platform.txt
//   python3 tools/pcsample_report.py /tmp/run
//
// writes /tmp/run.pcs (samples) and /tmp/run.maps, then prints the
// hottest functions. Without PCSAMPLE_OUT the library does nothing. Only
// the first process samples: it clears PCSAMPLE_OUT, so the programs it
// starts cannot overwrite its output. Preload the program itself, then; a
// wrapper such as `timeout` would take the samples instead. Each sample
// is the PC of whichever thread the signal lands on.

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

int g_out = -1;

std::uint64_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uint64_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::uint64_t pc = interrupted_pc(context);
  [[maybe_unused]] const ssize_t n = write(g_out, &pc, sizeof pc); // a failed write loses one sample
  errno = saved_errno;
}

bool copy_file(const char* from, const std::string& to) {
  const int in = open(from, O_RDONLY | O_CLOEXEC);
  if (in < 0) return false;
  const int out = open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool ok = out >= 0;
  char buf[4096];
  for (ssize_t n; ok && (n = read(in, buf, sizeof buf)) > 0;)
    ok = write(out, buf, static_cast<std::size_t>(n)) == n;
  if (out >= 0) close(out);
  close(in);
  return ok;
}

__attribute__((constructor)) void pcsample_start() {
  const char* prefix = std::getenv("PCSAMPLE_OUT");
  if (prefix == nullptr || *prefix == '\0') return;
  const std::string base(prefix);
  unsetenv("PCSAMPLE_OUT");
  if (!copy_file("/proc/self/maps", base + ".maps")) return;
  g_out = open((base + ".pcs").c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (g_out < 0) return;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;

  // A CLOCK_MONOTONIC timer, not setitimer(ITIMER_PROF): process CPU-time
  // timers do not fire reliably on every virtual machine.
  sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  timer_t timer;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) return;
  itimerspec spec;
  spec.it_interval = {0, 250'000}; // 250 µs
  spec.it_value = spec.it_interval;
  timer_settime(timer, 0, &spec, nullptr);
}

} // namespace
