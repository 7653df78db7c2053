// Command line shared by the custom-main fuzzers (edit_fuzz_test,
// crash_recovery_fuzz_test, net_fault_fuzz_test). Every knob is a
// `--flag VALUE` pair with an environment twin, the flag winning.
//
// Numeric knobs are parsed as strictly as TREELAB_THREADS
// (util::parse_thread_count): anything but a whole base-10 number in
// [1, max] — "abc", "100k", "0", "-3", "", an overflow — ends the run with
// a message and exit status 2, instead of being read as 0, which every
// fuzzer takes to mean "use the default".
#pragma once

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace treelab::fuzz {

/// The --artifact-dir knob, set by the fuzzer's main; empty = unset.
inline std::string g_artifact_dir;

/// Where failing runs write replay files and op logs.
inline std::string artifact_dir() {
  return g_artifact_dir.empty() ? testing::TempDir() : g_artifact_dir + "/";
}

/// argv after testing::InitGoogleTest took the gtest flags, plus the
/// environment. Arguments that name no knob are ignored.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// The last `flag VALUE` on the command line, else `env`, else "".
  [[nodiscard]] std::string text(const char* flag, const char* env) const {
    const char* v = raw(flag, env);
    return v == nullptr ? std::string() : std::string(v);
  }

  /// A count knob in [1, max of T]; 0 when unset.
  template <typename T = std::uint64_t>
  [[nodiscard]] T count(const char* flag, const char* env) const {
    const char* v = raw(flag, env);
    if (v == nullptr) return 0;
    constexpr auto kMax =
        static_cast<unsigned long long>(std::numeric_limits<T>::max());
    errno = 0;
    char* end = nullptr;
    // strtoull alone would take a sign or leading blanks ("-1" wraps).
    const unsigned long long n =
        *v >= '0' && *v <= '9' ? std::strtoull(v, &end, 10) : 0;
    if (n < 1 || n > kMax || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr,
                   "fuzz: %s / %s = '%s' is not a whole number in [1, %llu]; "
                   "refusing to fall back to the default\n",
                   flag, env, v, kMax);
      std::exit(2);
    }
    return static_cast<T>(n);
  }

 private:
  [[nodiscard]] const char* raw(const char* flag, const char* env) const {
    const char* v = nullptr;
    for (int i = 1; i < argc_; ++i) {
      if (std::strcmp(argv_[i], flag) != 0) continue;
      if (i + 1 == argc_) {
        std::fprintf(stderr, "fuzz: %s needs a value\n", flag);
        std::exit(2);
      }
      v = argv_[++i];
    }
    return v != nullptr ? v : std::getenv(env);
  }

  int argc_;
  char** argv_;
};

}  // namespace treelab::fuzz
