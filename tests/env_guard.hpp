#pragma once

// Scoped environment override for tests: sets (or, with a null value,
// unsets) one variable and restores its previous state on scope exit. The
// simulator re-reads DCFA_SIM_* and DCFA_CHECK at every engine
// construction, so a guard around one run configures that run only.

#include <cstdlib>
#include <string>

class EnvGuard {
 public:
  EnvGuard(const char* key, const char* value) : key_(key) {
    const char* old = std::getenv(key);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv(key, value, 1);
    } else {
      ::unsetenv(key);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(key_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(key_.c_str());
    }
  }

  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string key_, old_;
  bool had_old_;
};
