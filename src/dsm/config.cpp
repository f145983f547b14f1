#include "dsm/config.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <type_traits>

#include "util/check.hpp"
#include "util/options.hpp"

namespace anow::dsm {

const std::vector<KnobSpec>& knob_table() {
  static const std::vector<KnobSpec> table = {
      {"backend", "ANOW_BACKEND", &Knobs::backend, {"sim", "real"}, 0, "sim",
       nullptr, "execution backend (DESIGN.md §14)"},
      {"engine", "ANOW_ENGINE", &Knobs::engine, {"lrc", "home"}, 0, "lrc",
       nullptr, "consistency engine (DESIGN.md §5, §5a)",
       {{"home_lrc", "home"}}},
      {"piggyback", "ANOW_PIGGYBACK", &Knobs::piggyback,
       {"off", "release", "aggressive"}, 0, "release", nullptr,
       "envelope coalescing policy (DESIGN.md §7)"},
      {"dir-shards", "ANOW_DIR_SHARDS", &Knobs::dir_shards, {}, 1, "1",
       nullptr, "owner-directory shards (DESIGN.md §8)"},
      {"placement", "ANOW_PLACEMENT", &Knobs::placement,
       {"static", "adaptive"}, 0, "static", "static",
       "home migration and shard rebalancing (DESIGN.md §9)"},
      {"topology", "ANOW_TOPOLOGY", &Knobs::topology, {"flat", "tree"}, 0,
       "flat", nullptr, "control-plane topology (DESIGN.md §12)"},
      {"fanout", "ANOW_FANOUT", &Knobs::fanout, {}, 1, "4", nullptr,
       "tree fan-out under --topology tree (DESIGN.md §12)"},
      {"race-check", "ANOW_RACE_CHECK", &Knobs::race_check,
       {"off", "page", "word"}, 0, "off", "off",
       "LRC data-race detection (DESIGN.md §13)"},
      {"trace", "ANOW_TRACE", &Knobs::trace_file, {}, 0, "", "",
       "Chrome trace-event JSON output file (DESIGN.md §11)"},
      {"time-breakdown", nullptr, &Knobs::time_attribution, {"false", "true"},
       0, "false", "false",
       "per-process virtual-time attribution table (DESIGN.md §11)",
       {{"0", "false"}, {"no", "false"}, {"off", "false"},
        {"1", "true"}, {"yes", "true"}, {"on", "true"}}},
  };
  return table;
}

namespace {

const KnobSpec& row_of(const KnobSpec::Field& field) {
  for (const auto& spec : knob_table()) {
    if (spec.field == field) return spec;
  }
  ANOW_CHECK_MSG(false, "no knob table row for this field");
}

const KnobSpec& row_of(const std::string& flag) {
  for (const auto& spec : knob_table()) {
    if (flag == spec.flag) return spec;
  }
  ANOW_CHECK_MSG(false, "no knob table row for --" << flag);
}

template <class T>
const char* choice_name(T Knobs::*member, T value) {
  return row_of(member).choices.at(static_cast<std::size_t>(value)).c_str();
}

/// "--engine/ANOW_ENGINE", or "--time-breakdown" for a CLI-only knob.
std::string knob_label(const KnobSpec& spec) {
  return std::string("--") + spec.flag +
         (spec.env != nullptr ? std::string("/") + spec.env : "");
}

/// What set_knob accepts, for error and --help text.
std::string expects(const KnobSpec& spec) {
  if (std::holds_alternative<int Knobs::*>(spec.field)) {
    return "an integer >= " + std::to_string(spec.min);
  }
  if (spec.choices.empty()) return "a file path";
  std::string list;
  for (const auto& c : spec.choices) list += (list.empty() ? "" : ",") + c;
  return "one of {" + list + "}";
}

/// The --help text after "--flag": syntax, description, env var, default.
std::string knob_help(const KnobSpec& spec) {
  std::string help = expects(spec) + "\n      " + spec.help + "; ";
  if (spec.env != nullptr) help += std::string("env ") + spec.env + ", ";
  const std::string fallback = spec.fallback;
  return help + "default " + (fallback.empty() ? "none" : fallback);
}

}  // namespace

std::string set_knob(Knobs& knobs, const KnobSpec& spec, std::string text) {
  return std::visit(
      [&](auto Knobs::*member) -> std::string {
        using T = std::remove_reference_t<decltype(knobs.*member)>;
        if constexpr (std::is_same_v<T, std::string>) {
          knobs.*member = text;
          return "";
        } else if constexpr (std::is_same_v<T, int>) {
          std::int64_t n = 0;
          if (util::parse_int(text, n) && n >= spec.min && n <= INT_MAX) {
            knobs.*member = static_cast<int>(n);
            return "";
          }
        } else {
          for (const auto& [alias, canonical] : spec.aliases) {
            if (text == alias) text = canonical;
          }
          const auto& c = spec.choices;
          const auto it = std::find(c.begin(), c.end(), text);
          if (it != c.end()) {
            knobs.*member = static_cast<T>(it - c.begin());
            return "";
          }
        }
        return "expects " + expects(spec);
      },
      spec.field);
}

std::string knob_value(const Knobs& knobs, const KnobSpec& spec) {
  return std::visit(
      [&](auto Knobs::*member) -> std::string {
        const auto& value = knobs.*member;
        using T = std::remove_cvref_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return value;
        } else if constexpr (std::is_same_v<T, int>) {
          return std::to_string(value);
        } else {
          return spec.choices.at(static_cast<std::size_t>(value));
        }
      },
      spec.field);
}

Knobs::Knobs() : Knobs(env_knobs()) {}

Knobs Knobs::builtin() {
  Knobs knobs{Blank{}};
  for (const auto& spec : knob_table()) set_knob(knobs, spec, spec.fallback);
  return knobs;
}

Knobs read_env_knobs() {
  Knobs knobs = Knobs::builtin();
  for (const auto& spec : knob_table()) {
    const char* env = spec.env != nullptr ? std::getenv(spec.env) : nullptr;
    if (env == nullptr || *env == '\0') continue;
    const std::string bad = set_knob(knobs, spec, env);
    if (!bad.empty()) {
      util::usage_error(std::string(spec.env) + "='" + env + "' " + bad);
    }
  }
  return knobs;
}

const Knobs& env_knobs() {
  static const Knobs knobs = read_env_knobs();
  return knobs;
}

std::string knob_error(const Knobs& knobs) {
  for (const auto& spec : knob_table()) {
    const std::string value = knob_value(knobs, spec);
    const auto* number = std::get_if<int Knobs::*>(&spec.field);
    if (number != nullptr && knobs.**number < spec.min) {
      return knob_label(spec) + "='" + value + "' expects " + expects(spec);
    }
    if (knobs.backend == BackendKind::kReal && spec.real_value != nullptr &&
        value != spec.real_value) {
      return knob_label(spec) + "='" + value + "' is simulator-only; it " +
             "cannot run with " + knob_label(row_of(&Knobs::backend)) +
             "='real'";
    }
  }
  return "";
}

void apply_knob_options(util::Options& opts, Knobs& knobs,
                        const std::vector<std::string>& flags) {
  for (const auto& flag : flags) {
    const KnobSpec& spec = row_of(flag);
    opts.describe(flag, knob_help(spec));
    if (!opts.has(flag)) continue;
    const std::string text = opts.get_string(flag, "");
    const std::string bad = set_knob(knobs, spec, text);
    if (!bad.empty()) util::usage_error("--" + flag + "='" + text + "' " + bad);
  }
  const std::string bad = knob_error(knobs);
  if (!bad.empty()) util::usage_error(bad);
}

const char* backend_kind_name(BackendKind kind) {
  return choice_name(&Knobs::backend, kind);
}
const char* engine_kind_name(EngineKind kind) {
  return choice_name(&Knobs::engine, kind);
}
const char* piggyback_mode_name(PiggybackMode mode) {
  return choice_name(&Knobs::piggyback, mode);
}
const char* placement_mode_name(PlacementMode mode) {
  return choice_name(&Knobs::placement, mode);
}
const char* topology_kind_name(TopologyKind kind) {
  return choice_name(&Knobs::topology, kind);
}
const char* race_check_mode_name(RaceCheckMode mode) {
  return choice_name(&Knobs::race_check, mode);
}

}  // namespace anow::dsm
