// Tiny command-line option parser for benches and examples.
//
// Supports --key=value, --key value, and boolean --flag forms.  Unknown
// options are an error so typos in sweeps don't silently run defaults.
// Every rejection prints one "error: <message>" line and exits with status
// 2, never an uncaught exception.  --help lists the flags the
// program accepts (see allow_only) and exits 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anow::util {

class Options {
 public:
  /// Parses argv; exits with status 2 on malformed input.
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& default_value) const;
  /// get_string restricted to an allowed set (e.g. --engine {lrc,home});
  /// a usage error listing the valid choices when the value is not one of
  /// them.
  std::string get_choice(const std::string& key,
                         const std::vector<std::string>& allowed,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& key,
                       std::int64_t default_value) const;
  double get_double(const std::string& key, double default_value) const;
  bool get_bool(const std::string& key, bool default_value) const;

  /// Keys seen on the command line (for validation by the caller).
  const std::map<std::string, std::string>& raw() const { return values_; }

  /// Checks that every provided key is in the allowed set (a usage error
  /// otherwise).  With --help, prints the allowed set and exits 0 instead.
  void allow_only(const std::vector<std::string>& keys) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace anow::util
