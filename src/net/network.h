#ifndef HARBOR_NET_NETWORK_H_
#define HARBOR_NET_NETWORK_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "runtime/scheduler.h"
#include "sim/sim_config.h"
#include "sim/sim_network.h"

namespace harbor {

/// \brief A network message: a type tag (defined by the protocol layer in
/// src/core) and an opaque serialized payload.
struct Message {
  uint16_t type = 0;
  std::vector<uint8_t> payload;

  /// Approximate on-wire size for the bandwidth model.
  int64_t WireBytes() const {
    return static_cast<int64_t>(payload.size()) + 32;  // + header/framing
  }
};

/// \brief The in-process cluster transport: the simulated stand-in for the
/// paper's TCP mesh (§6.1.6).
///
/// Each registered site is a *strand* on the shared runtime scheduler: its
/// requests are served in arrival order with at most `num_threads` running
/// concurrently — the same semantics as the thesis's "each worker runs a
/// multi-threaded server", but without dedicating OS threads per site, so
/// hundreds of sites share one fixed pool. Calls are synchronous RPCs
/// (CallAsync returns a future for parallel fan-out, e.g. PREPARE to all
/// workers).
///
/// Wire time holds no thread. Each message leg reserves its transfer on the
/// sender's NIC (SimNetwork::Send) and gets one arrival instant, later by
/// any fault-injected link delay; the scheduler's timer then posts the
/// request's dispatch turn to the target strand, or completes the caller's
/// future with the reply, at that instant (Scheduler::PostAt).
///
/// Failure semantics follow the paper's fail-stop model: CrashSite
/// atomically marks the endpoint dead, fails requests still in transit or
/// queued and all future calls with kUnavailable (the "abruptly closed TCP
/// socket" failure signal of §5.5.1), waits for in-flight handlers to
/// drain, and fires crash subscriptions so e.g. a recovery buddy can
/// release a dead recovering site's locks. A reply still on the wire when
/// the scheduler shuts down resolves as kUnavailable.
class Network {
 public:
  /// `scheduler` (the cluster's one runtime) hosts every site's dispatch
  /// and times every message leg; it must outlive the network.
  Network(const SimConfig& config, runtime::Scheduler& scheduler);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using Handler = std::function<Result<Message>(SiteId from, const Message&)>;

  /// Registers (or re-registers after a restart) a site endpoint serving up
  /// to `num_threads` concurrent handlers.
  Status RegisterSite(SiteId site, Handler handler, int num_threads);

  /// Fail-stop crash: new and queued calls fail immediately; in-flight
  /// handlers are drained (their blocking waits must be unblocked by the
  /// caller first, e.g. LockManager::Shutdown); crash subscribers fire.
  /// Must not be called from one of the site's own in-flight handlers.
  ///
  /// Concurrent calls for the same site are safe: exactly one caller
  /// performs the drain and fires the subscribers, and every call returns
  /// only after the drain is complete (no handler still in flight).
  void CrashSite(SiteId site);

  bool IsAlive(SiteId site);

  /// Synchronous RPC. Returns kUnavailable if the target is down.
  Result<Message> Call(SiteId from, SiteId to, Message request);

  /// Asynchronous RPC for parallel fan-out.
  std::future<Result<Message>> CallAsync(SiteId from, SiteId to,
                                         Message request);

  /// Registers a callback fired (on the crashing thread) whenever any site
  /// crashes.
  void SubscribeCrash(std::function<void(SiteId)> callback);

  /// The runtime hosting this network's dispatch — the cluster-wide
  /// executor for timers, recovery fan-out, and sessions.
  runtime::Scheduler* scheduler() { return &sched_; }

  SimNetwork& sim() { return sim_; }

  /// Messages delivered so far (Table 4.2 accounting).
  int64_t num_messages() const { return sim_.num_messages(); }

 private:
  /// The caller's end of one call, resolved exactly once. Whoever drops the
  /// last reference to an unresolved slot (a reply-delivery task destroyed
  /// unrun by a shut-down scheduler) resolves it as kUnavailable, so a
  /// caller never sees broken_promise.
  struct ReplySlot {
    std::promise<Result<Message>> promise;
    bool resolved = false;
    void Resolve(Result<Message> result);
    ~ReplySlot();
  };
  struct PendingCall {
    SiteId from = 0;
    Message request;
    std::shared_ptr<ReplySlot> reply;
  };
  struct Endpoint {
    Handler handler;
    std::mutex mu;
    std::condition_variable cv;
    /// Requests sent and not yet served (on the wire or queued on the
    /// strand), by call id; the dispatch turn posted at a request's arrival
    /// instant carries its id.
    std::unordered_map<uint64_t, PendingCall> in_transit;
    uint64_t next_call_id = 1;
    runtime::StrandId strand = 0;
    bool alive = false;
    bool drained = false;  // crash finished: in_transit failed, drained
    int in_flight = 0;
  };

  /// Puts one request leg on the wire (under ep->mu): reserves it on the
  /// sender's NIC and posts the dispatch turn at its arrival instant, plus
  /// `delay_ns` of fault-injected delay. On refusal (runtime shut down)
  /// the call is handed back unsent.
  bool SendLocked(SiteId to, const std::shared_ptr<Endpoint>& ep,
                  PendingCall& call, int64_t delay_ns);
  /// One dispatch turn on the endpoint's strand: serves call `call_id` if
  /// it is still in transit. No-op once the site has crashed.
  void DispatchOne(SiteId site, const std::shared_ptr<Endpoint>& ep,
                   uint64_t call_id);
  std::shared_ptr<Endpoint> Find(SiteId site);

  const SimConfig config_;
  SimNetwork sim_;
  runtime::Scheduler& sched_;
  std::mutex mu_;
  std::unordered_map<SiteId, std::shared_ptr<Endpoint>> endpoints_;
  std::vector<std::function<void(SiteId)>> crash_subscribers_;
};

}  // namespace harbor

#endif  // HARBOR_NET_NETWORK_H_
