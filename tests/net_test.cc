// Unit tests for the in-process cluster transport: RPC round trips,
// parallel fan-out, crash semantics, restart, and crash subscriptions.

#include "net/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

Message Ping(uint16_t type, uint8_t byte) {
  Message m;
  m.type = type;
  m.payload = {byte};
  return m;
}

TEST(NetworkTest, CallRoundTrip) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  ASSERT_OK(net.RegisterSite(1, [](SiteId from, const Message& m) {
    Message reply = m;
    reply.payload.push_back(static_cast<uint8_t>(from));
    return Result<Message>(reply);
  }, 2));
  ASSERT_OK_AND_ASSIGN(Message reply, net.Call(0, 1, Ping(7, 42)));
  EXPECT_EQ(reply.type, 7);
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], 42);
  EXPECT_EQ(reply.payload[1], 0);  // handler saw the sender id
}

TEST(NetworkTest, HandlerErrorsPropagate) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message&) {
    return Result<Message>(Status::Aborted("no"));
  }, 1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).status().IsAborted());
}

TEST(NetworkTest, CallToUnknownOrDeadSiteIsUnavailable) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  EXPECT_TRUE(net.Call(0, 9, Ping(1, 1)).status().IsUnavailable());
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 1));
  net.CrashSite(1);
  EXPECT_FALSE(net.IsAlive(1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).status().IsUnavailable());
}

TEST(NetworkTest, ParallelFanOutCompletes) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  std::atomic<int> handled{0};
  for (SiteId s = 1; s <= 4; ++s) {
    ASSERT_OK(net.RegisterSite(s, [&](SiteId, const Message& m) {
      handled++;
      return Result<Message>(m);
    }, 2));
  }
  std::vector<std::future<Result<Message>>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(net.CallAsync(0, static_cast<SiteId>(1 + i % 4),
                                    Ping(1, static_cast<uint8_t>(i))));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(handled.load(), 40);
}

TEST(NetworkTest, CrashFailsQueuedCalls) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  std::atomic<bool> release{false};
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Result<Message>(m);
  }, 1));
  // One in-flight call occupies the single server thread; more queue up.
  auto f1 = net.CallAsync(0, 1, Ping(1, 1));
  auto f2 = net.CallAsync(0, 1, Ping(1, 2));
  auto f3 = net.CallAsync(0, 1, Ping(1, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread crasher([&] {
    release = true;  // let the in-flight handler drain
    net.CrashSite(1);
  });
  // Queued calls fail with Unavailable (the closed-connection signal).
  Result<Message> r2 = f2.get();
  Result<Message> r3 = f3.get();
  EXPECT_TRUE(r2.status().IsUnavailable() || r2.ok());
  EXPECT_TRUE(r3.status().IsUnavailable() || r3.ok());
  f1.get();
  crasher.join();
}

TEST(NetworkTest, RestartAfterCrash) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  auto echo = [](SiteId, const Message& m) { return Result<Message>(m); };
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  // Double registration of a live site is refused.
  EXPECT_TRUE(net.RegisterSite(1, echo, 1).IsAlreadyExists());
  net.CrashSite(1);
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).ok());
}

TEST(NetworkTest, CrashSubscribersFire) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  auto echo = [](SiteId, const Message& m) { return Result<Message>(m); };
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  ASSERT_OK(net.RegisterSite(2, echo, 1));
  std::vector<SiteId> crashed;
  net.SubscribeCrash([&](SiteId s) { crashed.push_back(s); });
  net.CrashSite(2);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 2u);
}

TEST(NetworkTest, MessageStatsAccumulate) {
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 1));
  int64_t before = net.num_messages();
  ASSERT_OK(net.Call(0, 1, Ping(1, 1)).status());
  // One request + one reply.
  EXPECT_EQ(net.num_messages() - before, 2);
}

// Regression test for the crash drain path: a CrashSite racing with another
// CrashSite on the same endpoint used to return while the first caller was
// still joining server threads, so "CrashSite returned" did not imply
// "handlers drained". Now every CrashSite call — winner or loser — blocks
// until the endpoint is fully drained, and the crash subscribers fire
// exactly once.
TEST(NetworkTest, ConcurrentCrashWaitsForDrain) {
  for (int round = 0; round < 20; ++round) {
    runtime::Scheduler sched;
    Network net(SimConfig::Zero(), sched);
    std::atomic<bool> release{false};
    std::atomic<int> in_flight{0};
    ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
      in_flight++;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      in_flight--;
      return Result<Message>(m);
    }, 2));
    std::atomic<int> subscriber_fires{0};
    net.SubscribeCrash([&](SiteId) {
      // By the time subscribers run, no handler may still be executing.
      EXPECT_EQ(in_flight.load(), 0);
      subscriber_fires++;
    });

    auto f1 = net.CallAsync(0, 1, Ping(1, 1));
    auto f2 = net.CallAsync(0, 1, Ping(1, 2));
    while (in_flight.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::thread other_crasher([&] { net.CrashSite(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    release = true;
    net.CrashSite(1);  // concurrent with other_crasher
    // Both CrashSite calls have returned only once the drain completed.
    EXPECT_EQ(in_flight.load(), 0);
    EXPECT_FALSE(net.IsAlive(1));
    other_crasher.join();
    EXPECT_EQ(subscriber_fires.load(), 1);
    f1.get();
    f2.get();
  }
}

TEST(NetworkTest, CrashUnderConcurrentAsyncLoad) {
  // Client threads hammer CallAsync while the site crashes and restarts
  // underneath them: every future must complete (reply or Unavailable),
  // with no use-after-free or double-join in the dispatch teardown. Runs
  // under the TSan CI filter.
  runtime::Scheduler sched;
  Network net(SimConfig::Zero(), sched);
  std::atomic<int64_t> handled{0};
  auto handler = [&](SiteId, const Message& m) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return Result<Message>(m);
  };
  ASSERT_OK(net.RegisterSite(1, handler, 4));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> bad_status{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<std::future<Result<Message>>> pending;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 8; ++i) {
          pending.push_back(net.CallAsync(0, 1, Ping(1, 1)));
        }
        for (auto& f : pending) {
          Result<Message> r = f.get();
          completed.fetch_add(1, std::memory_order_relaxed);
          if (!r.ok() && !r.status().IsUnavailable()) {
            bad_status.fetch_add(1, std::memory_order_relaxed);
          }
        }
        pending.clear();
      }
    });
  }

  for (int round = 0; round < 10; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    net.CrashSite(1);
    ASSERT_OK(net.RegisterSite(1, handler, 4));  // restart
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  net.CrashSite(1);

  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(handled.load(), 0);
  EXPECT_EQ(bad_status.load(), 0)
      << "a crash must surface as kUnavailable, nothing else";
}

// Wire time is a deadline on the scheduler's timer, not a sleeping pool
// thread: on a 1-worker runtime, 64 concurrent calls finish in about one
// modelled round trip (2 ms), not 64, and no spare thread covers them.
TEST(NetworkTest, ConcurrentCallsShareTheWireWithoutHoldingThreads) {
  runtime::Scheduler::Options opt;
  opt.workers = 1;
  runtime::Scheduler sched(opt);
  SimConfig cfg;
  cfg.net_latency_ns = 1'000'000;
  Network net(cfg, sched);
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 8));
  Stopwatch w;
  std::vector<std::future<Result<Message>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(net.CallAsync(0, 1, Ping(1, static_cast<uint8_t>(i))));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  const int64_t elapsed = w.ElapsedNanos();
  EXPECT_GE(elapsed, 2'000'000) << "a reply beat its modelled round trip";
  EXPECT_LT(elapsed, 16'000'000) << "calls serialized on the wire";
  EXPECT_EQ(sched.spares_spawned(), 0);
  EXPECT_EQ(net.num_messages(), 128);
}

// A request still on the wire when its site crashes fails with
// kUnavailable, and its handler never runs, not even on the restarted site.
TEST(NetworkTest, CrashFailsRequestsStillOnTheWire) {
  runtime::Scheduler sched;
  SimConfig cfg;
  cfg.net_latency_ns = 100'000'000;
  Network net(cfg, sched);
  std::atomic<int> handled{0};
  auto handler = [&](SiteId, const Message& m) {
    handled++;
    return Result<Message>(m);
  };
  ASSERT_OK(net.RegisterSite(1, handler, 2));
  std::vector<std::future<Result<Message>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(net.CallAsync(0, 1, Ping(1, static_cast<uint8_t>(i))));
  }
  net.CrashSite(1);
  for (auto& f : futures) EXPECT_TRUE(f.get().status().IsUnavailable());
  ASSERT_OK(net.RegisterSite(1, handler, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // past arrival
  EXPECT_EQ(handled.load(), 0);
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 9)).ok());
  EXPECT_EQ(handled.load(), 1);
}

// A reply on the wire when the runtime shuts down resolves as kUnavailable,
// never as broken_promise.
TEST(NetworkTest, ReplyInFlightAtShutdownResolves) {
  runtime::Scheduler sched;
  SimConfig cfg;
  cfg.net_latency_ns = 100'000'000;
  Network net(cfg, sched);
  std::atomic<bool> served{false};
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    served = true;
    return Result<Message>(m);
  }, 1));
  auto f = net.CallAsync(0, 1, Ping(1, 1));
  while (!served.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Shutdown();
  Result<Message> r = Status::Internal("unset");
  EXPECT_NO_THROW(r = f.get());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
}

// ~Network with a reply and a request on the wire: the reply still arrives
// (its delivery touches no Network), the request fails, and its dispatch
// turn, due after the network is gone, is dropped (ASan checks).
TEST(NetworkTest, DestroyWithMessagesInFlight) {
  runtime::Scheduler sched;
  SimConfig cfg;
  cfg.net_latency_ns = 50'000'000;
  auto net = std::make_unique<Network>(cfg, sched);
  std::atomic<int> handled{0};
  ASSERT_OK(net->RegisterSite(1, [&](SiteId, const Message& m) {
    handled++;
    return Result<Message>(m);
  }, 1));
  auto reply_on_wire = net->CallAsync(0, 1, Ping(1, 1));
  while (handled.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto request_on_wire = net->CallAsync(0, 1, Ping(1, 2));
  net.reset();
  Result<Message> reply = Status::Internal("unset");
  Result<Message> request = Status::Internal("unset");
  EXPECT_NO_THROW(reply = reply_on_wire.get());
  EXPECT_NO_THROW(request = request_on_wire.get());
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(request.status().IsUnavailable());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // past arrival
  EXPECT_EQ(handled.load(), 1);
}

// A site serves messages in arrival order, not send order: a large request
// sent first is still on its sender's NIC when a small one from another
// sender arrives.
TEST(NetworkTest, ServesMessagesInArrivalOrder) {
  runtime::Scheduler sched;
  SimConfig cfg;
  cfg.net_latency_ns = 0;
  cfg.net_bandwidth_bytes_per_sec = 1'000'000;  // 1 byte per microsecond
  Network net(cfg, sched);
  std::mutex mu;
  std::vector<uint8_t> served;
  ASSERT_OK(net.RegisterSite(3, [&](SiteId, const Message& m) {
    std::lock_guard<std::mutex> lock(mu);
    served.push_back(m.payload[0]);
    return Result<Message>(Ping(1, m.payload[0]));
  }, 1));
  Message big = Ping(1, 1);
  big.payload.resize(100'000, 1);  // 100 ms on site 1's NIC
  auto f_big = net.CallAsync(1, 3, big);
  auto f_small = net.CallAsync(2, 3, Ping(1, 2));  // 33 us on site 2's NIC
  EXPECT_TRUE(f_small.get().ok());
  EXPECT_TRUE(f_big.get().ok());
  EXPECT_EQ(served, (std::vector<uint8_t>{2, 1}));
}

}  // namespace
}  // namespace harbor
