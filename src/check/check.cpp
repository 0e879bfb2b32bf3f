#include "check/check.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"

namespace paraleon::check {

namespace {

std::string build_what(const std::string& expression, const std::string& file,
                       int line, const std::string& message) {
  std::ostringstream os;
  os << "PARALEON_CHECK failed: " << expression << " at " << file << ":"
     << line;
  if (!message.empty()) os << " — " << message;
  return os.str();
}

}  // namespace

CheckFailure::CheckFailure(std::string expression, std::string file, int line,
                           std::string message)
    : std::runtime_error(build_what(expression, file, line, message)),
      expression_(std::move(expression)),
      file_(std::move(file)),
      line_(line),
      message_(std::move(message)) {}

common::Json failure_to_json(const CheckFailure& failure) {
  using common::Json;
  return Json::make_object({
      {"expression", Json::make_string(failure.expression())},
      {"file", Json::make_string(failure.file())},
      {"line", Json::make_int(failure.line())},
      {"message", Json::make_string(failure.message())},
  });
}

namespace detail {

void fail(const char* expression, const char* file, int line,
          std::string message) {
  CheckFailure failure(expression, file, line, std::move(message));
  // Print before throwing: if the exception escapes main (or crosses a
  // noexcept boundary and terminates), the diagnostic still reaches the
  // log.
  std::fprintf(stderr, "%s\n", failure.what());
  std::fflush(stderr);
  throw failure;
}

}  // namespace detail
}  // namespace paraleon::check
