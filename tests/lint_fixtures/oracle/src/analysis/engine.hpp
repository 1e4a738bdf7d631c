// Oracle fixture: library code may not include the test-only oracle
// (tests/oracle), which no module of the layering contract may depend on.
#pragma once

#include "oracle/serial.hpp"

namespace oracle_fixture::analysis {

constexpr int engines() { return 2; }

}  // namespace oracle_fixture::analysis
