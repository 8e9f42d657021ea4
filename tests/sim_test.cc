// Unit tests for the simulation substrate: device queueing, disk cost
// accounting, network charging, and the CPU model.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "sim/sim_cpu.h"
#include "sim/sim_device.h"
#include "sim/sim_disk.h"
#include "sim/sim_network.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

TEST(SimDeviceTest, ChargeBlocksForCost) {
  SimDevice dev("d", /*enable_latency=*/true);
  Stopwatch w;
  dev.Charge(3'000'000);  // 3 ms
  EXPECT_GE(w.ElapsedNanos(), 3'000'000);
  EXPECT_EQ(dev.total_cost_ns(), 3'000'000);
}

TEST(SimDeviceTest, DisabledLatencyOnlyAccounts) {
  SimDevice dev("d", /*enable_latency=*/false);
  Stopwatch w;
  dev.Charge(50'000'000);
  EXPECT_LT(w.ElapsedMillis(), 5.0);
  EXPECT_EQ(dev.total_cost_ns(), 50'000'000);
}

TEST(SimDeviceTest, ConcurrentChargesSerialize) {
  // A single-server queue: two concurrent 5 ms charges take ~10 ms total.
  SimDevice dev("d", true);
  Stopwatch w;
  std::thread a([&] { dev.Charge(5'000'000); });
  std::thread b([&] { dev.Charge(5'000'000); });
  a.join();
  b.join();
  EXPECT_GE(w.ElapsedNanos(), 9'000'000);
}

TEST(SimDiskTest, CostModelShapes) {
  SimConfig cfg;
  cfg.enable_latency = false;
  SimDisk disk("d", cfg);
  disk.ChargeSequentialRead(4096);
  disk.ChargeRandomRead(4096);
  disk.ChargeWrite(4096);
  disk.ChargeForcedWrite(100);
  EXPECT_EQ(disk.num_reads(), 2);
  EXPECT_EQ(disk.num_writes(), 1);
  EXPECT_EQ(disk.num_forced_writes(), 1);
  // Forced write dominates: it includes the seek+rotation latency.
  EXPECT_GT(disk.total_busy_ns(), cfg.disk_force_latency_ns);
  disk.ResetStats();
  EXPECT_EQ(disk.num_reads(), 0);
}

TEST(SimDiskTest, ForcedWriteCostsMoreThanSequential) {
  SimConfig cfg;  // latencies on
  SimDisk disk("d", cfg);
  // Minimum over a few trials: a deschedule between starting the stopwatch
  // and finishing the charge inflates one wall-clock sample arbitrarily
  // when the test box is loaded (ctest -j), but cannot deflate it below
  // the modeled sleep.
  int64_t seq = std::numeric_limits<int64_t>::max();
  int64_t forced = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 3; ++i) {
    Stopwatch w1;
    disk.ChargeSequentialRead(4096);
    seq = std::min(seq, w1.ElapsedNanos());
    Stopwatch w2;
    disk.ChargeForcedWrite(4096);
    forced = std::min(forced, w2.ElapsedNanos());
  }
  EXPECT_GT(forced, seq * 5);
}

TEST(SimNetworkTest, CountsMessagesAndBytes) {
  SimConfig cfg = SimConfig::Zero();
  SimNetwork net(cfg);
  net.Send(1, 100);
  net.Send(2, 400);
  EXPECT_EQ(net.num_messages(), 2);
  EXPECT_EQ(net.num_bytes(), 500);
}

TEST(SimNetworkTest, SendersSerializeIndependently) {
  // Sending reserves without waiting, so arrival instants are exact. A
  // 5 KB message at 1 KB/s holds its sender's NIC for exactly 5 s (long
  // enough that no deschedule of this test can reach it); propagation is
  // added after the NIC and does not serialize.
  constexpr int64_t kTransfer = 5'000'000'000;
  constexpr int64_t kLatency = 1'000'000;
  SimConfig cfg;
  cfg.net_latency_ns = kLatency;
  cfg.net_bandwidth_bytes_per_sec = 1'000;
  SimNetwork net(cfg);
  // Two senders transfer concurrently on separate NICs: each message
  // arrives one transfer plus propagation after its send, not two (the
  // parallel-recovery property, §6.4.1).
  const int64_t before = NowNanos();
  const int64_t a = net.Send(1, 5000);
  const int64_t b = net.Send(2, 5000);
  const int64_t after = NowNanos();
  for (int64_t arrival : {a, b}) {
    EXPECT_GE(arrival, before + kTransfer + kLatency);
    EXPECT_LE(arrival, after + kTransfer + kLatency);
  }
  // Same sender: serialized, exactly one transfer apart.
  const int64_t c = net.Send(1, 5000);
  const int64_t d = net.Send(1, 5000);
  EXPECT_EQ(c - a, kTransfer);
  EXPECT_EQ(d - c, kTransfer);
  EXPECT_LT(NowNanos() - before, kTransfer) << "Send waited on the wire";
}

TEST(SimDeviceTest, ReserveQueuesWithoutWaiting) {
  SimDevice dev("d", true);
  const int64_t before = NowNanos();
  const int64_t first = dev.Reserve(1'000'000'000);  // 1 s
  const int64_t second = dev.Reserve(1'000'000'000);
  EXPECT_GE(first, before + 1'000'000'000);
  EXPECT_EQ(second - first, 1'000'000'000);
  EXPECT_LT(NowNanos() - before, 1'000'000'000) << "Reserve waited";
  EXPECT_EQ(dev.total_cost_ns(), 2'000'000'000);
  SimDevice off("off", /*enable_latency=*/false);
  const int64_t end = off.Reserve(1'000'000'000);
  EXPECT_LE(end, NowNanos()) << "latency off: the interval ends now";
}

TEST(SimCpuTest, WorkSerializesOnOneProcessor) {
  SimConfig cfg;
  cfg.ns_per_cpu_cycle = 1.0;
  SimCpu cpu(cfg);
  Stopwatch w;
  std::thread a([&] { cpu.DoWork(4'000'000); });  // 4 ms each
  std::thread b([&] { cpu.DoWork(4'000'000); });
  a.join();
  b.join();
  // §6.3.2: "a worker site cannot overlap the CPU work of concurrent
  // transactions".
  EXPECT_GE(w.ElapsedNanos(), 7'000'000);
  EXPECT_EQ(cpu.total_cycles(), 8'000'000);
}

TEST(SimCpuTest, ZeroConfigNeverSleeps) {
  SimCpu cpu(SimConfig::Zero());
  Stopwatch w;
  cpu.DoWork(1'000'000'000);
  EXPECT_LT(w.ElapsedMillis(), 5.0);
}

}  // namespace
}  // namespace harbor
