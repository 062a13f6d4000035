// Unit tests for network topologies and their effect on the replay engine,
// plus the common thread-count default.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "netsim/dimemas.hpp"
#include "netsim/topology.hpp"

namespace musa::netsim {
namespace {

TEST(Topology, CrossbarIsOneHop) {
  EXPECT_EQ(hop_count(Topology::kCrossbar, 0, 255, 256), 1);
  EXPECT_EQ(hop_count(Topology::kCrossbar, 3, 3, 256), 0);
  EXPECT_EQ(diameter(Topology::kCrossbar, 256), 1);
}

TEST(Topology, Torus2dManhattanWithWraparound) {
  // 16 nodes -> 4x4 grid. Node 0 = (0,0), node 5 = (1,1): 2 hops.
  EXPECT_EQ(hop_count(Topology::kTorus2D, 0, 5, 16), 2);
  // Node 3 = (3,0): wraparound distance 1 from node 0.
  EXPECT_EQ(hop_count(Topology::kTorus2D, 0, 3, 16), 1);
  // Opposite corner (2,2) from (0,0): 2+2 = 4 hops.
  EXPECT_EQ(hop_count(Topology::kTorus2D, 0, 10, 16), 4);
  EXPECT_EQ(diameter(Topology::kTorus2D, 16), 4);
  EXPECT_EQ(diameter(Topology::kTorus2D, 256), 16);
}

TEST(Topology, TorusIsSymmetric) {
  for (int a = 0; a < 16; ++a)
    for (int b = 0; b < 16; ++b)
      EXPECT_EQ(hop_count(Topology::kTorus2D, a, b, 16),
                hop_count(Topology::kTorus2D, b, a, 16));
}

TEST(Topology, FatTreeLeafLocality) {
  EXPECT_EQ(hop_count(Topology::kFatTree, 0, 15, 256), 2);   // same leaf
  EXPECT_EQ(hop_count(Topology::kFatTree, 0, 16, 256), 4);   // across
  EXPECT_EQ(diameter(Topology::kFatTree, 8), 2);
  EXPECT_EQ(diameter(Topology::kFatTree, 256), 4);
}

TEST(Topology, RejectsOutOfRange) {
  EXPECT_THROW(hop_count(Topology::kTorus2D, 0, 99, 16), SimError);
  EXPECT_THROW(hop_count(Topology::kCrossbar, -1, 0, 16), SimError);
}

TEST(Topology, NamesResolve) {
  EXPECT_STREQ(topology_name(Topology::kTorus2D), "torus2d");
  EXPECT_STREQ(topology_name(Topology::kBus), "bus");
}

// --- Topology effect on the replay engine ---------------------------------

trace::AppTrace ring_trace(int P, std::uint64_t bytes) {
  trace::AppTrace t;
  t.ranks.resize(P);
  for (int r = 0; r < P; ++r) {
    t.ranks[r].rank = r;
    auto& ev = t.ranks[r].events;
    ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kIrecv,
                                        (r + P - 1) % P, bytes, 0));
    ev.push_back(
        trace::BurstEvent::mpi(trace::MpiOp::kIsend, (r + 1) % P, bytes, 1));
    ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kWait, -1, 0, 0));
    ev.push_back(trace::BurstEvent::mpi(trace::MpiOp::kWait, -1, 0, 1));
  }
  return t;
}

TEST(TopologyReplay, BusSerializesTransfers) {
  const trace::AppTrace t = ring_trace(16, 1 << 20);
  NetworkConfig xbar;
  NetworkConfig bus = xbar;
  bus.topology = Topology::kBus;
  const double t_xbar =
      DimemasEngine(xbar).replay(t, {}).total_seconds;
  const double t_bus = DimemasEngine(bus).replay(t, {}).total_seconds;
  // 16 concurrent 1 MB transfers share one medium: ~16x the crossbar time.
  EXPECT_GT(t_bus / t_xbar, 8.0);
}

TEST(TopologyReplay, TorusAddsHopLatency) {
  // Tiny messages: latency-dominated, so hops show directly.
  const trace::AppTrace t = ring_trace(64, 8);
  NetworkConfig xbar;
  NetworkConfig torus = xbar;
  torus.topology = Topology::kTorus2D;
  const double t_xbar = DimemasEngine(xbar).replay(t, {}).total_seconds;
  const double t_torus = DimemasEngine(torus).replay(t, {}).total_seconds;
  // Ring neighbours are 1 hop apart in the torus too, except the wraparound
  // pair crossing rows; torus is never faster.
  EXPECT_GE(t_torus, t_xbar * 0.999);
}

TEST(TopologyReplay, CollectivesScaleWithDiameter) {
  trace::AppTrace t;
  t.ranks.resize(64);
  for (int r = 0; r < 64; ++r) {
    t.ranks[r].rank = r;
    t.ranks[r].events.push_back(
        trace::BurstEvent::mpi(trace::MpiOp::kBarrier, -1, 0));
  }
  NetworkConfig xbar;
  NetworkConfig torus = xbar;
  torus.topology = Topology::kTorus2D;
  const double t_xbar = DimemasEngine(xbar).replay(t, {}).total_seconds;
  const double t_torus = DimemasEngine(torus).replay(t, {}).total_seconds;
  EXPECT_NEAR(t_torus / t_xbar, diameter(Topology::kTorus2D, 64), 0.01);
}

}  // namespace
}  // namespace musa::netsim

namespace musa {
namespace {

TEST(DefaultThreadCount, AtLeastOne) {
  EXPECT_GE(default_thread_count(), 1);
}

}  // namespace
}  // namespace musa
