// Fixture for tests/knob_registry_check.cmake: one knob read from the
// environment, plus a GOCC_TEST_ name the check must ignore.
#include <cstdlib>

const char* Alpha() { return std::getenv("GOCC_FIXTURE_ALPHA"); }
const char* Scratch() { return std::getenv("GOCC_TEST_SCRATCH"); }
