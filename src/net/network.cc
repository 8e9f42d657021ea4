#include "net/network.h"

#include "fault/fault_injector.h"
#include "obs/observer.h"

namespace harbor {

void Network::ReplySlot::Resolve(Result<Message> result) {
  if (resolved) return;
  resolved = true;
  promise.set_value(std::move(result));
}

Network::ReplySlot::~ReplySlot() {
  Resolve(Status::Unavailable("reply lost in transit (runtime shut down)"));
}

Network::Network(const SimConfig& config, runtime::Scheduler& scheduler)
    : config_(config), sim_(config), sched_(scheduler) {}

Network::~Network() {
  std::vector<SiteId> sites;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [site, ep] : endpoints_) sites.push_back(site);
    crash_subscribers_.clear();  // no callbacks during teardown
  }
  for (SiteId site : sites) CrashSite(site);
  // Releasing every crashed site's strand discarded its queued dispatch
  // tasks, so nothing on a shared scheduler can outlive this network.
}

std::shared_ptr<Network::Endpoint> Network::Find(SiteId site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(site);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status Network::RegisterSite(SiteId site, Handler handler, int num_threads) {
  auto ep = std::make_shared<Endpoint>();
  ep->handler = std::move(handler);
  ep->alive = true;
  // The strand exists before the endpoint is published, so every caller
  // and every CrashSite that finds the endpoint also finds its strand.
  ep->strand = sched_.CreateStrand(num_threads);
  if (ep->strand == 0) return Status::Unavailable("runtime is shut down");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(site);
    if (it == endpoints_.end() || !it->second->alive) {
      endpoints_[site] = ep;
      return Status::OK();
    }
  }
  sched_.ReleaseStrand(ep->strand);
  return Status::AlreadyExists("site " + std::to_string(site) +
                               " already registered and alive");
}

bool Network::SendLocked(SiteId to, const std::shared_ptr<Endpoint>& ep,
                         PendingCall& call, int64_t delay_ns) {
  const int64_t arrival =
      sim_.Send(call.from, call.request.WireBytes()) + delay_ns;
  const uint64_t id = ep->next_call_id++;
  auto slot = ep->in_transit.emplace(id, std::move(call)).first;
  if (sched_.PostAt(ep->strand, arrival,
                    [this, to, ep, id] { DispatchOne(to, ep, id); })) {
    return true;
  }
  call = std::move(slot->second);
  ep->in_transit.erase(slot);
  return false;
}

void Network::DispatchOne(SiteId site, const std::shared_ptr<Endpoint>& ep,
                          uint64_t call_id) {
  PendingCall call;
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    if (!ep->alive) return;
    auto it = ep->in_transit.find(call_id);
    if (it == ep->in_transit.end()) return;
    call = std::move(it->second);
    ep->in_transit.erase(it);
    ep->in_flight++;
  }
  Result<Message> result = ep->handler(call.from, call.request);
  if (result.ok()) {
    // The reply leg, on this site's NIC: the caller's future completes at
    // its arrival instant, and this pool thread is free at once.
    const int64_t arrival = sim_.Send(site, result->WireBytes());
    sched_.PostAt(runtime::Scheduler::kTimerThread, arrival,
                  [reply = call.reply, result = std::move(result)]() mutable {
                    reply->Resolve(std::move(result));
                  });
  } else {
    call.reply->Resolve(std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    ep->in_flight--;
  }
  ep->cv.notify_all();
}

void Network::CrashSite(SiteId site) {
  std::shared_ptr<Endpoint> ep = Find(site);
  if (ep == nullptr) return;
  runtime::StrandId to_release = 0;
  {
    std::unique_lock<std::mutex> lock(ep->mu);
    if (ep->drained) return;  // already fully crashed
    if (!ep->alive) {
      // Another thread is mid-crash; wait for it so this call, like every
      // CrashSite call, returns only once no handler is in flight.
      runtime::ScopedBlocking block;
      ep->cv.wait(lock, [&] { return ep->drained; });
      return;
    }
    ep->alive = false;
    // Fail whatever is on the wire or queued (the abruptly-closed-socket
    // signal); their dispatch turns find nothing to serve.
    for (auto& [id, call] : ep->in_transit) {
      call.reply->Resolve(Status::Unavailable("site crashed"));
    }
    ep->in_transit.clear();
    {
      // In-flight handlers drain; their blocking waits were unblocked by
      // the caller (e.g. LockManager::Shutdown) per the crash protocol.
      runtime::ScopedBlocking block;
      ep->cv.wait(lock, [&] { return ep->in_flight == 0; });
    }
    ep->drained = true;
    to_release = ep->strand;
    ep->strand = 0;
  }
  ep->cv.notify_all();
  // Discards queued dispatch turns (their calls were failed above), and
  // makes the scheduler drop those still timed for arrival. Not under
  // ep->mu: the strand's last running turns may need it to see the crash.
  sched_.ReleaseStrand(to_release);
  obs::Trace(site, "net.crash");

  // Only the transitioning crasher reaches this point, so subscribers fire
  // exactly once per crash, after the drain.
  std::vector<std::function<void(SiteId)>> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs = crash_subscribers_;
  }
  for (const auto& cb : subs) cb(site);
}

bool Network::IsAlive(SiteId site) {
  std::shared_ptr<Endpoint> ep = Find(site);
  if (ep == nullptr) return false;
  std::lock_guard<std::mutex> lock(ep->mu);
  return ep->alive;
}

std::future<Result<Message>> Network::CallAsync(SiteId from, SiteId to,
                                                Message request) {
  PendingCall call{from, std::move(request), std::make_shared<ReplySlot>()};
  std::future<Result<Message>> future = call.reply->promise.get_future();
  std::shared_ptr<Endpoint> ep = Find(to);
  if (ep == nullptr) {
    call.reply->Resolve(Status::Unavailable("no site " + std::to_string(to)));
    return future;
  }
  // Link faults: a dropped message surfaces as kUnavailable at the caller
  // (under fail-stop RPC there are no silent losses — a broken connection is
  // the failure signal); a duplicate exercises handler idempotency.
  int64_t delay_ms = 0;
  bool duplicate = false;
  if (fault::FaultInjector* fi = fault::FaultInjector::Current()) {
    fault::LinkDecision d = fi->OnMessage(from, to, call.request.type);
    if (d.drop) {
      call.reply->Resolve(Status::Unavailable(
          "fault-injected drop of message to site " + std::to_string(to)));
      return future;
    }
    delay_ms = d.delay_ms;
    duplicate = d.duplicate;
  }
  const int64_t delay_ns = delay_ms * 1'000'000;
  std::lock_guard<std::mutex> lock(ep->mu);
  if (!ep->alive) {
    call.reply->Resolve(Status::Unavailable(
        "site " + std::to_string(to) + " is down (connection refused)"));
    return future;
  }
  if (duplicate) {  // the copy's reply goes nowhere
    PendingCall copy{from, call.request, std::make_shared<ReplySlot>()};
    SendLocked(to, ep, copy, delay_ns);
  }
  if (!SendLocked(to, ep, call, delay_ns)) {
    // Runtime shut down under us: fail the call like a crashed site.
    call.reply->Resolve(Status::Unavailable(
        "site " + std::to_string(to) + " is down (runtime shut down)"));
  }
  return future;
}

Result<Message> Network::Call(SiteId from, SiteId to, Message request) {
  runtime::ScopedBlocking block;
  return CallAsync(from, to, std::move(request)).get();
}

void Network::SubscribeCrash(std::function<void(SiteId)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_subscribers_.push_back(std::move(callback));
}

}  // namespace harbor
