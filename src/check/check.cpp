#include "check/check.hpp"

#include <cstdio>
#include <utility>

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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

CheckFailure::CheckFailure(std::string expression, std::string file, int line,
                           std::string message)
    : std::runtime_error(build_what(expression, file, line, message)),
      expression_(std::move(expression)),
      file_(std::move(file)),
      line_(line),
      message_(std::move(message)) {}

std::string failure_to_json(const CheckFailure& failure) {
  std::ostringstream os;
  os << "{\n  \"expression\": \"" << json_escape(failure.expression())
     << "\",\n  \"file\": \"" << json_escape(failure.file())
     << "\",\n  \"line\": " << failure.line() << ",\n  \"message\": \""
     << json_escape(failure.message()) << "\"\n}";
  return os.str();
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
