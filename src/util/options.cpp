#include "util/options.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <iostream>

namespace anow::util {

void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

bool parse_int(const std::string& text, std::int64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && !text.empty();
}

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
    program_ = program_.substr(program_.find_last_of('/') + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      usage_error("expected --option, got '" + arg + "'");
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Options::get_string(const std::string& key,
                                const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::int64_t n = 0;
  if (!parse_int(it->second, n)) {
    usage_error("option --" + key + " expects an integer, got '" +
                it->second + "'");
  }
  return n;
}

std::vector<int> Options::get_int_list(const std::string& key,
                                       const std::vector<int>& default_value,
                                       int min) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  std::vector<int> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = it->second.find(',', pos);
    std::int64_t n = 0;
    if (!parse_int(it->second.substr(pos, comma - pos), n) || n < min ||
        n > INT_MAX) {
      usage_error("option --" + key +
                  " expects a comma-separated list of integers >= " +
                  std::to_string(min) + ", got '" + it->second + "'");
    }
    out.push_back(static_cast<int>(n));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

double Options::get_double(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    usage_error("option --" + key + " expects a number, got '" + it->second +
                "'");
  }
}

bool Options::get_bool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  usage_error("option --" + key + " expects a boolean, got '" + v + "'");
}

void Options::describe(const std::string& key, const std::string& help) {
  help_.emplace_back(key, help);
}

void Options::allow_only(const std::vector<std::string>& keys) const {
  if (has("help")) {
    std::cout << "usage: " << program_ << " [options]\n";
    for (const auto& key : keys) std::cout << "  --" << key << "\n";
    for (const auto& [key, help] : help_) {
      std::cout << "  --" << key << "  " << help << "\n";
    }
    std::exit(0);
  }
  for (const auto& [key, value] : values_) {
    (void)value;
    const auto described = [&key](const auto& h) { return h.first == key; };
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        std::none_of(help_.begin(), help_.end(), described)) {
      usage_error("unknown option --" + key);
    }
  }
}

}  // namespace anow::util
