#include "src/htm/stripe_table.h"

namespace gocc::htm::internal {

PaddedStripe g_stripes[kNumStripes];
std::atomic<uint64_t> g_clock{0};

}  // namespace gocc::htm::internal
