// Test helper shared by the suites that build a --backend real config.
//
// Every Knobs starts from the ANOW_* environment (DESIGN.md §15), so a CI
// leg that exports a simulator-only value (ANOW_PLACEMENT=adaptive) would
// hand it to a real-backend test, whose DsmSystem then refuses to start.
#pragma once

#include "dsm/config.hpp"
#include "util/check.hpp"

namespace anow::test {

/// Sets every knob-table row that names a real-backend value to that
/// value, leaving the backend itself and every other knob as they are.
/// A sim leg compared against a real one takes the same values, so the
/// two differ only in the backend.
inline void use_real_knob_values(dsm::Knobs& knobs) {
  for (const dsm::KnobSpec& spec : dsm::knob_table()) {
    if (spec.real_value == nullptr) continue;
    ANOW_CHECK(dsm::set_knob(knobs, spec, spec.real_value).empty());
  }
}

}  // namespace anow::test
