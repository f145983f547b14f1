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
#include <utility>
#include <vector>

namespace anow::util {

/// The one exit path for bad command-line or environment input: prints
/// "error: <message>" to stderr and exits with status 2.
[[noreturn]] void usage_error(const std::string& message);

/// Parses all of `text` as a base-10 integer; false on empty input,
/// trailing garbage ("4x") or overflow.
bool parse_int(const std::string& text, std::int64_t& out);

class Options {
 public:
  /// Parses argv; exits with status 2 on malformed input.
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& key,
                       std::int64_t default_value) const;
  /// Comma-separated ints, each >= min (e.g. --dir-shards 1,4).
  std::vector<int> get_int_list(const std::string& key,
                                const std::vector<int>& default_value,
                                int min) const;
  double get_double(const std::string& key, double default_value) const;
  bool get_bool(const std::string& key, bool default_value) const;

  /// Keys seen on the command line (for validation by the caller).
  const std::map<std::string, std::string>& raw() const { return values_; }

  /// Accepts `key` in allow_only() and gives it a --help description.
  void describe(const std::string& key, const std::string& help);

  /// Checks that every provided key is in the allowed set or described (a
  /// usage error otherwise).  With --help, prints the allowed set and the
  /// descriptions and exits 0 instead.
  void allow_only(const std::vector<std::string>& keys) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  /// describe()d keys and their help, in the order described.
  std::vector<std::pair<std::string, std::string>> help_;
};

}  // namespace anow::util
