#ifndef SKETCHML_COMMON_LOGGING_H_
#define SKETCHML_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace sketchml::common {

/// Severity of a log line. `kFatal` aborts the process after logging.
enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4
};

/// Sets the minimum severity that is emitted to stderr. Defaults to kInfo.
void SetLogThreshold(LogLevel level);
LogLevel GetLogThreshold();

namespace internal {

/// Accumulates one log line and flushes it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows a log statement whose severity is below the threshold.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace sketchml::common

#define SKETCHML_LOG(level)                                      \
  ::sketchml::common::internal::LogMessage(                      \
      ::sketchml::common::LogLevel::k##level, __FILE__, __LINE__)

/// Aborts with a message when `condition` is false. Guards programmer
/// errors (broken invariants), not recoverable failures.
#define SKETCHML_CHECK(condition)                                       \
  (condition) ? (void)0                                                 \
              : ::sketchml::common::internal::Voidify() &               \
                    SKETCHML_LOG(Fatal) << "Check failed: " #condition " "

#define SKETCHML_CHECK_EQ(a, b) SKETCHML_CHECK((a) == (b))
#define SKETCHML_CHECK_NE(a, b) SKETCHML_CHECK((a) != (b))
#define SKETCHML_CHECK_LT(a, b) SKETCHML_CHECK((a) < (b))
#define SKETCHML_CHECK_LE(a, b) SKETCHML_CHECK((a) <= (b))
#define SKETCHML_CHECK_GT(a, b) SKETCHML_CHECK((a) > (b))
#define SKETCHML_CHECK_GE(a, b) SKETCHML_CHECK((a) >= (b))

/// Debug-only contract assertion for structural invariants that are too
/// expensive (or too hot) to verify on every release-mode call: KLL
/// level-weight conservation, byte-cursor accounting, thread-pool task
/// counts.
///
/// Enabled by building with -DSKETCHML_DCHECK=ON (the `checked` CMake
/// preset). In release builds the condition is type-checked but NEVER
/// evaluated — zero overhead, and runs stay bit-identical to a build
/// without the macro (pinned by tests/dcheck_test.cc and the golden
/// regression gate). Conditions must therefore be side-effect free.
///
/// Use SKETCHML_CHECK for cheap preconditions that must also hold in
/// production; use SKETCHML_DCHECK for O(n) invariant walks and
/// redundant-by-construction consistency checks.
#ifndef SKETCHML_DCHECK_ENABLED
#define SKETCHML_DCHECK_ENABLED 0
#endif

#if SKETCHML_DCHECK_ENABLED
#define SKETCHML_DCHECK(condition)                                      \
  (condition) ? (void)0                                                 \
              : ::sketchml::common::internal::Voidify() &               \
                    SKETCHML_LOG(Fatal) << "DCheck failed: " #condition " "
#else
// Dead `while (false)` keeps the condition (and any streamed operands)
// type-checked so disabled DCHECKs cannot bit-rot, while guaranteeing the
// expression is never evaluated.
#define SKETCHML_DCHECK(condition) \
  while (false) SKETCHML_CHECK(condition)
#endif

#define SKETCHML_DCHECK_EQ(a, b) SKETCHML_DCHECK((a) == (b))
#define SKETCHML_DCHECK_NE(a, b) SKETCHML_DCHECK((a) != (b))
#define SKETCHML_DCHECK_LT(a, b) SKETCHML_DCHECK((a) < (b))
#define SKETCHML_DCHECK_LE(a, b) SKETCHML_DCHECK((a) <= (b))
#define SKETCHML_DCHECK_GT(a, b) SKETCHML_DCHECK((a) > (b))
#define SKETCHML_DCHECK_GE(a, b) SKETCHML_DCHECK((a) >= (b))

namespace sketchml::common::internal {

/// Lets SKETCHML_CHECK discard the LogMessage expression's value so the
/// ternary above type-checks.
struct Voidify {
  void operator&(LogMessage&) {}
};

}  // namespace sketchml::common::internal

#endif  // SKETCHML_COMMON_LOGGING_H_
