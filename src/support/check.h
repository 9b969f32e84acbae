// Lightweight runtime-check macros used across the library.
//
// TREEPLACE_CHECK is always on (it guards API misuse and algorithm
// invariants whose violation would silently corrupt results).
// TREEPLACE_DCHECK compiles out in NDEBUG builds and is reserved for
// inner-loop invariants that are too hot to keep in release binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace treeplace {

/// Exception thrown by TREEPLACE_CHECK failures.  Using an exception rather
/// than abort() keeps library misuse testable and recoverable by callers.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what, std::string message = {})
      : std::logic_error(what), message_(std::move(message)) {}

  /// The check's message alone, without the failed condition and its
  /// source location that what() adds: the text a client is sent.  what()
  /// when the check has no message.
  std::string message() const { return message_.empty() ? what() : message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "TREEPLACE_CHECK failed: " << cond << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg);
}

}  // namespace detail
}  // namespace treeplace

#define TREEPLACE_CHECK(cond)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::treeplace::detail::check_failed(#cond, __FILE__, __LINE__, "");    \
  } while (0)

#define TREEPLACE_CHECK_MSG(cond, msg)                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream os_;                                              \
      os_ << msg;                                                          \
      ::treeplace::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                        os_.str());                        \
    }                                                                      \
  } while (0)

#ifdef NDEBUG
#define TREEPLACE_DCHECK(cond) \
  do {                         \
  } while (0)
#else
#define TREEPLACE_DCHECK(cond) TREEPLACE_CHECK(cond)
#endif
