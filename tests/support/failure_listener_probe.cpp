// Fails on purpose while a Simulation with a non-empty flight recorder is
// alive. ctest runs it as a WILL_FAIL test with a timeout: the failure
// listener in test_main.cpp must dump the recorder, report the failure and
// let the process exit non-zero. A listener that blocks inside gtest turns
// this into a timeout, which ctest reports as a failure.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace emptcp {
namespace {

TEST(FailureListenerProbe, FailsWhileSimulationIsAlive) {
  sim::Simulation sim(1);
  sim.trace().cwnd(sim::Time{1}, 1, 10, 5);  // gives the dumper a tail
  ASSERT_GT(sim.trace().flight().total(), 0u);
  ADD_FAILURE() << "deliberate failure: the process must exit, not hang";
}

}  // namespace
}  // namespace emptcp
