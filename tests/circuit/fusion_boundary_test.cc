/**
 * Pins that the default fusion pass treats a noise channel as a barrier
 * only on the wires it acts on: pending 1q products on other wires carry
 * across it (fusion_test covers the channel's own wires).
 */
#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include "circuit/noise.h"

namespace qkc {
namespace {

TEST(FusionBoundaryTest, DefaultOptionsFuseAcrossAnUntouchedChannel)
{
    // The channel only touches q1, so the pass carries the pending H on q0
    // across it and the H·H product drops as identity.
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::depolarizing(1, 0.02));
    c.h(0);
    const Circuit fused = fuseGates(c);
    EXPECT_EQ(fused.gateCount(), 0u);
    EXPECT_EQ(fused.noiseCount(), 1u);
}

} // namespace
} // namespace qkc
