// Release-mode correctness checks.
//
// PARALEON_CHECK replaces bare assert(): it stays active in every build
// type (the default RelWithDebInfo defines NDEBUG, which silently strips
// assert), prints the failing expression with caller-supplied context, and
// throws paraleon::check::CheckFailure instead of aborting — so tests can
// assert on diagnostics and long sweeps fail one run, not the process.
//
//   PARALEON_CHECK(used >= 0, "switch ", id(), " negative occupancy ", used);
//
// PARALEON_DCHECK is the debug-only variant for per-packet hot paths; it
// compiles to dead code under NDEBUG but its operands still type-check.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace paraleon::common {
class Json;
}  // namespace paraleon::common

namespace paraleon::check {

/// Thrown by a failing PARALEON_CHECK / PARALEON_DCHECK.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(std::string expression, std::string file, int line,
               std::string message);

  const std::string& expression() const { return expression_; }
  const std::string& file() const { return file_; }
  int line() const { return line_; }
  /// The caller-supplied context (empty when none was given).
  const std::string& message() const { return message_; }

 private:
  std::string expression_;
  std::string file_;
  int line_;
  std::string message_;
};

/// Serialises a failure for a flight-recorder post-mortem bundle
/// (`failure.json`): expression, file, line, and message.
common::Json failure_to_json(const CheckFailure& failure);

namespace detail {

/// Prints the failure to stderr and throws CheckFailure.
[[noreturn]] void fail(const char* expression, const char* file, int line,
                       std::string message);

/// Concatenates the context arguments with operator<<.
template <class... Args>
std::string format_message(Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return {};
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

}  // namespace detail
}  // namespace paraleon::check

/// Always-on invariant check; the context arguments are evaluated only on
/// failure, so they are free on the passing path.
#define PARALEON_CHECK(cond, ...)                                  \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::paraleon::check::detail::fail(                             \
          #cond, __FILE__, __LINE__,                               \
          ::paraleon::check::detail::format_message(__VA_ARGS__)); \
    }                                                              \
  } while (false)

/// Debug-only variant for hot paths: dead code under NDEBUG, but the
/// condition and context still compile, so they cannot rot.
#ifdef NDEBUG
#define PARALEON_DCHECK(cond, ...)        \
  do {                                    \
    if (false) {                          \
      PARALEON_CHECK(cond, __VA_ARGS__); \
    }                                     \
  } while (false)
#else
#define PARALEON_DCHECK(cond, ...) PARALEON_CHECK(cond, __VA_ARGS__)
#endif
