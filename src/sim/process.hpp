#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace dcfa::sim {

class Engine;
class Condition;

/// Internal exception used to unwind a parked process when its engine is
/// destroyed before the process body finished. Never escapes the library.
struct AbandonedProcess {};

/// A cooperative simulated process.
///
/// Each process runs its body on a stackful Fiber (sim/fiber.hpp): the
/// engine switches into it to resume it, and the process switches back
/// whenever it blocks in wait() / wait_on(). One OS thread runs the engine
/// and every fiber, and only one of them runs at a time, so the simulation
/// needs no locking and is fully deterministic. Thousands of ranks cost
/// lazily-paged stack mappings, not OS threads.
///
/// Schedule exploration (DCFA_SIM_SCHED=explore) needs no cooperation from
/// this layer, and that is a load-bearing property: *every* way a process
/// can block or become runnable — wait() timers, wait_on() wakeups,
/// spawn-time first resumes — funnels through Engine::schedule_at, so
/// permuting same-time event priorities in the engine's queue explores
/// every interleaving decision there is. Nothing in Process or Condition
/// may ever resume a context directly without going through an engine
/// event, or that decision would escape the explored (and replayed)
/// schedule.
class Process {
 public:
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  Engine& engine() { return engine_; }
  Time now() const;

  /// Advance virtual time by `d` (models computation or fixed overheads).
  void wait(Time d);

  /// Block until `cond` is notified. Callers typically loop:
  ///   while (!predicate()) wait_on(cond);
  void wait_on(Condition& cond);

  /// True once the body has returned.
  bool finished() const { return done_; }

  /// The process whose body is currently executing, or nullptr outside any
  /// process body. Many ranks share the one OS thread, so per-rank ambient
  /// state must key off the process, not the thread.
  static Process* current();

  /// One ambient pointer slot per process, for layers that need "process
  /// globals" (the C API keeps its per-rank environment here). The process
  /// does not own what it points to.
  void set_ambient(void* p) { ambient_ = p; }
  void* ambient() const { return ambient_; }

  /// Exception that escaped the body, if any (rethrown by Engine::run()).
  std::exception_ptr error() const { return error_; }

 private:
  friend class Engine;
  friend class Condition;

  Process(Engine& engine, std::string name, std::function<void(Process&)> body);

  /// Engine-side: switch into the fiber until it parks or finishes.
  void resume();
  /// Process-side: switch back to the engine.
  void park();
  /// Fiber body: error capture and the done transition.
  void run_body();
  /// Engine-side, once per process after the body returns: release the
  /// fiber stack and the body closure eagerly, so a finished rank stops
  /// costing memory long before teardown. The Process shell (name, error)
  /// survives for diagnostics.
  void finish_cleanup();

  /// Set around every resume; saved and restored, so a resume nested in
  /// teardown leaves the outer value intact.
  static Process* current_;

  Engine& engine_;
  std::string name_;
  std::function<void(Process&)> body_;
  bool done_ = false;
  bool abandoned_ = false;  ///< teardown unwind flag
  void* ambient_ = nullptr;
  std::exception_ptr error_;
  std::unique_ptr<Fiber> fiber_;
};

/// A waitable condition in virtual time. notify_all() schedules a wake-up of
/// every current waiter at the current virtual time; waiters re-check their
/// predicates on resume (spurious wake-ups are allowed and expected).
class Condition {
 public:
  explicit Condition(Engine& engine, std::string name = {});

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Wake every process currently blocked in wait_on(*this).
  void notify_all();

  const std::string& name() const { return name_; }

 private:
  friend class Process;

  Engine& engine_;
  std::string name_;
  std::vector<Process*> waiters_;
};

}  // namespace dcfa::sim
