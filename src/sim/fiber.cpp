#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if !defined(__x86_64__)
#error "src/sim/fiber.cpp: the fiber switch is written for x86-64 only"
#endif

// Sanitizer detection. Both ASan and TSan follow a fiber across a stack
// switch only when told about it: ASan through the
// __sanitizer_*_switch_fiber protocol, TSan through __tsan_*_fiber. Each
// annotation sits immediately before (or, for ASan's finish half, after)
// the dcfa_fiber_switch it describes.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCFA_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define DCFA_FIBER_TSAN 1
#endif
#endif
#if !defined(DCFA_FIBER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define DCFA_FIBER_ASAN 1
#endif
#if !defined(DCFA_FIBER_TSAN) && defined(__SANITIZE_THREAD__)
#define DCFA_FIBER_TSAN 1
#endif

#ifdef DCFA_FIBER_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

#ifdef DCFA_FIBER_TSAN
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// dcfa_fiber_switch(save, load): push the running context's callee-saved
// state onto its own stack, store that stack pointer in *save, adopt the
// stack pointer `load`, and pop the state saved there. The SysV ABI makes
// rbx, rbp, r12-r15, the MXCSR control bits and the x87 control word
// callee-saved; every other register is the caller's to preserve across a
// call, so this is the whole context. Unlike glibc's context switch it
// leaves the signal mask alone, which is what makes a switch free of
// syscalls.
// It keeps no CET shadow stack in step, so it assumes the process runs
// without one, as glibc starts every process unless told otherwise.
// Frame at *save, from the saved stack pointer up:
//   [0] x87 control word  [8] MXCSR  [16] r15 r14 r13 r12 rbx rbp  [64] ret
// Fiber::resume builds the same frame by hand for a fiber's first entry.
extern "C" void dcfa_fiber_switch(void** save, void* load);

asm(R"(
  .pushsection .text
  .p2align 4
  .globl dcfa_fiber_switch
  .hidden dcfa_fiber_switch
  .type dcfa_fiber_switch, @function
dcfa_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dcfa_fiber_switch, .-dcfa_fiber_switch
  .popsection
)");

namespace dcfa::sim {

namespace {

// The hand-built first frame returns into Fiber::trampoline, which takes
// no argument; the fiber being entered parks itself here just before the
// switch. One OS thread runs every fiber, so a plain static suffices.
Fiber* entering = nullptr;

std::size_t page_size() {
  static const std::size_t p = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

}  // namespace

std::string SchedConfig::schedule_token() const {
  if (order != Order::Explore) return {};
  char buf[32];
  std::snprintf(buf, sizeof buf, "x1:%llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

SchedConfig SchedConfig::from_token(const std::string& token) {
  if (token.rfind("x1:", 0) != 0 || token.size() <= 3) {
    throw std::invalid_argument(
        "DCFA_SIM_SCHEDULE: expected a replay token 'x1:<hex seed>', got '" +
        token + "'");
  }
  std::size_t used = 0;
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(token.substr(3), &used, 16);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != token.size() - 3) {
    throw std::invalid_argument(
        "DCFA_SIM_SCHEDULE: bad seed digits in token '" + token + "'");
  }
  SchedConfig cfg;
  cfg.order = Order::Explore;
  cfg.seed = seed;
  return cfg;
}

SchedConfig SchedConfig::from_env() {
  SchedConfig cfg;
  if (const char* e = std::getenv("DCFA_SIM_SCHED")) {
    if (std::strcmp(e, "explore") == 0) {
      cfg.order = Order::Explore;
    } else if (std::strcmp(e, "fifo") != 0) {
      throw std::invalid_argument(
          std::string("DCFA_SIM_SCHED: expected 'fifo' or 'explore', got '") +
          e + "'");
    }
  }
  if (const char* e = std::getenv("DCFA_SIM_SEED")) {
    char* end = nullptr;
    const unsigned long long s = std::strtoull(e, &end, 10);
    if (end == e || *end != '\0') {
      throw std::invalid_argument("DCFA_SIM_SEED: not a decimal integer");
    }
    cfg.seed = static_cast<std::uint64_t>(s);
  }
  if (const char* e = std::getenv("DCFA_SIM_SCHEDULE")) {
    // A replay token pins both the policy and the seed; it wins over
    // DCFA_SIM_SCHED/DCFA_SIM_SEED so "export the printed token and rerun"
    // needs no other environment surgery.
    const SchedConfig replay = from_token(e);
    cfg.order = replay.order;
    cfg.seed = replay.seed;
  }
  if (const char* e = std::getenv("DCFA_SIM_STACK_KB")) {
    const long kb = std::strtol(e, nullptr, 10);
    if (kb < 16 || kb > 1048576) {
      throw std::invalid_argument("DCFA_SIM_STACK_KB: out of range [16, 2^20]");
    }
    cfg.stack_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  return cfg;
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  const std::size_t page = page_size();
  stack_size_ = (stack_bytes + page - 1) / page * page;
  map_bytes_ = stack_size_ + page;
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw std::runtime_error("Fiber: stack mmap failed");
  }
  // Stacks grow down; an overflow hits the PROT_NONE page and faults
  // instead of silently corrupting the neighbouring fiber's stack.
  if (mprotect(map_, page, PROT_NONE) != 0) {
    munmap(map_, map_bytes_);
    map_ = nullptr;
    throw std::runtime_error("Fiber: guard-page mprotect failed");
  }
  stack_base_ = static_cast<char*>(map_) + page;
#ifdef DCFA_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef DCFA_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

void Fiber::trampoline() {
  Fiber* f = entering;
  entering = nullptr;
  f->enter();
}

void Fiber::enter() {
#ifdef DCFA_FIBER_ASAN
  // First entry: no fake stack of our own to restore yet; record the
  // resumer's stack so yield()/exit can switch back to it.
  __sanitizer_finish_switch_fiber(nullptr, &from_stack_bottom_,
                                  &from_stack_size_);
#endif
  body_();
  done_ = true;
#ifdef DCFA_FIBER_ASAN
  // Final exit: nullptr tells ASan this stack is dying (its fake-stack
  // frames are released instead of saved).
  __sanitizer_start_switch_fiber(nullptr, from_stack_bottom_,
                                 from_stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  // Leave by a final switch rather than by returning: trampoline has no
  // caller to return to, and no instrumented epilogue may run on this stack
  // once the sanitizers have been told we are back on the resumer's. The
  // stack pointer saved into self_sp_ is never resumed.
  dcfa_fiber_switch(&self_sp_, return_sp_);
}

void Fiber::resume() {
  if (done_) return;
  if (!started_) {
    started_ = true;
    // The first frame, as dcfa_fiber_switch would have saved it, at the top
    // of the stack. The fiber starts in its resumer's floating-point
    // environment (x87 control word and MXCSR read here); the six
    // callee-saved registers start at zero, and rbp = 0 ends frame-pointer
    // walks at trampoline. The return slot lies on a 16-byte boundary with a
    // null fake return address above it, so trampoline is entered with
    // rsp = 8 (mod 16), exactly as after a call.
    std::uint16_t fpcw = 0;
    std::uint32_t mxcsr = 0;
    asm volatile("fnstcw %0" : "=m"(fpcw));
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    auto* top = reinterpret_cast<std::uint64_t*>(
        static_cast<char*>(stack_base_) + stack_size_);
    std::uint64_t* frame = top - 10;
    frame[0] = fpcw;
    frame[1] = mxcsr;
    for (int i = 2; i < 8; ++i) frame[i] = 0;  // r15 r14 r13 r12 rbx rbp
    frame[8] = reinterpret_cast<std::uint64_t>(&Fiber::trampoline);
    frame[9] = 0;
    self_sp_ = frame;
    entering = this;
  }
#ifdef DCFA_FIBER_ASAN
  __sanitizer_start_switch_fiber(&resumer_fake_stack_, stack_base_,
                                 stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  dcfa_fiber_switch(&return_sp_, self_sp_);
#ifdef DCFA_FIBER_ASAN
  __sanitizer_finish_switch_fiber(resumer_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#ifdef DCFA_FIBER_ASAN
  __sanitizer_start_switch_fiber(&own_fake_stack_, from_stack_bottom_,
                                 from_stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  dcfa_fiber_switch(&self_sp_, return_sp_);
#ifdef DCFA_FIBER_ASAN
  // Re-record the resumer's stack on every entry, as the protocol asks.
  __sanitizer_finish_switch_fiber(own_fake_stack_, &from_stack_bottom_,
                                  &from_stack_size_);
#endif
}

}  // namespace dcfa::sim
