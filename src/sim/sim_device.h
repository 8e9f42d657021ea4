#ifndef HARBOR_SIM_SIM_DEVICE_H_
#define HARBOR_SIM_SIM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace harbor {

/// \brief A single-server queueing model of a serial hardware resource (a
/// disk head, a NIC).
///
/// Each operation reserves a [start, end) interval on the device's virtual
/// timeline (anchored to the real monotonic clock). Because intervals never
/// overlap, concurrent callers queue up exactly as requests would queue at a
/// real device: under contention the device becomes the bottleneck and
/// per-caller latency grows — this is what makes the "disk-bound" plateaus
/// of Figure 6-2 emerge naturally, and what lets group commit win by folding
/// many commits into a single reservation.
///
/// Charge() reserves and then sleeps the caller until the interval ends (a
/// disk access holds its thread). Reserve() only reserves and returns the
/// end instant, for costs that a deadline can carry instead of a thread: a
/// network leg is delivered by the scheduler's timer at that instant.
class SimDevice {
 public:
  explicit SimDevice(std::string name, bool enable_latency = true)
      : name_(std::move(name)), enable_latency_(enable_latency) {}

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  /// Reserves `cost_ns` of device time and blocks the caller until the
  /// reserved interval has elapsed. Returns the caller-observed latency in
  /// nanoseconds (queueing delay + service time).
  int64_t Charge(int64_t cost_ns);

  /// Reserves `cost_ns` of device time without waiting and returns the
  /// instant (NowNanos() clock) the reserved interval ends: now or later,
  /// and exactly now when latency is disabled.
  int64_t Reserve(int64_t cost_ns);

  /// Accounts an operation without sleeping (used when enable_latency is
  /// false, and for statistics-only costs).
  void Account(int64_t cost_ns) {
    total_cost_ns_.fetch_add(cost_ns, std::memory_order_relaxed);
  }

  /// Total device time consumed so far (ns), regardless of latency mode.
  int64_t total_cost_ns() const {
    return total_cost_ns_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  bool latency_enabled() const { return enable_latency_; }

 private:
  const std::string name_;
  const bool enable_latency_;
  std::mutex mu_;
  int64_t next_free_ns_ = 0;  // guarded by mu_; virtual timeline anchor
  std::atomic<int64_t> total_cost_ns_{0};
};

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_DEVICE_H_
