#ifndef HARBOR_SIM_SIM_NETWORK_H_
#define HARBOR_SIM_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/clock.h"
#include "common/types.h"
#include "obs/observer.h"
#include "sim/sim_config.h"
#include "sim/sim_device.h"

namespace harbor {

/// \brief Cost model for the cluster LAN.
///
/// Each message pays a fixed one-way propagation latency (not serialized —
/// many messages can be in flight) plus a bandwidth charge serialized on the
/// *sending* site's NIC/stack. The bandwidth term is what makes large
/// recovery transfers (Phase 2 streaming thousands of tuples, §6.4) take
/// time, and the per-sender serialization is what lets *parallel* recovery
/// from two different buddies overlap transfers — "the recovery buddies can
/// overlap the network costs of sending tuples, and the recovering site
/// essentially receives two tuples in the time to send one" (§6.4.1).
///
/// Sending never waits: wire time is a reservation on the sender's NIC
/// timeline plus a deadline. The caller hands the returned arrival instant
/// to the scheduler (runtime::Scheduler::PostAt), whose timer thread is the
/// only thread that waits it out.
class SimNetwork {
 public:
  explicit SimNetwork(const SimConfig& config) : config_(config) {}

  /// Counts one message of `bytes` from site `from`, reserves its transfer
  /// on that site's NIC, and returns its arrival instant (NowNanos() clock):
  /// the reservation's end plus the propagation latency. With latency
  /// disabled the arrival instant is now.
  int64_t Send(SiteId from, int64_t bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    obs::Count(from, obs::CounterId::kNetMessagesSent);
    obs::Count(from, obs::CounterId::kNetBytesSent, bytes);
    obs::Observe(from, obs::HistogramId::kNetMessageBytes, bytes);
    if (!config_.enable_latency) return NowNanos();
    // Propagation latency is unserialized: it follows the NIC reservation.
    return Nic(from).Reserve(bytes * 1'000'000'000 /
                             config_.net_bandwidth_bytes_per_sec) +
           config_.net_latency_ns;
  }

  int64_t num_messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  int64_t num_bytes() const { return bytes_.load(std::memory_order_relaxed); }
  void ResetStats() {
    messages_ = 0;
    bytes_ = 0;
  }

  const SimConfig& config() const { return config_; }

 private:
  SimDevice& Nic(SiteId site) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& nic = nics_[site];
    if (!nic) {
      nic = std::make_unique<SimDevice>("nic-" + std::to_string(site),
                                        config_.enable_latency);
    }
    return *nic;
  }

  const SimConfig config_;
  std::mutex mu_;
  std::unordered_map<SiteId, std::unique_ptr<SimDevice>> nics_;
  std::atomic<int64_t> messages_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_NETWORK_H_
