// HARBOR benchmark: ingest, scans beside ingest, and recovery
// (quiesced and online) on the paper's 1 coordinator + 3 worker testbed,
// driven only through the cluster's public calls.
//
//   harborbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --scratch <dir> [--spans <file>]
//
// Prints a human-readable report, one `detail` JSON line, and as the last
// line {"correct", "attempted", "failed", "metrics"}. NOTES.md describes the
// workloads, metrics and gates.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/cluster.h"
#include "exec/operator.h"
#include "exec/seq_scan.h"
#include "obs/observer.h"

namespace hb {

using namespace harbor;  // NOLINT
namespace fs = std::filesystem;

// ----------------------------------------------------------- configuration
//
// Every cost-model and cluster value is written out here, so an edit to the
// library's defaults cannot move this benchmark's baseline unseen.

constexpr int kWorkers = 3;
constexpr int kColumns = 14;               // 14 INT32 = the 64-byte eval tuple
constexpr size_t kPreloadBatch = 20'000;
constexpr uint32_t kSegmentPages = 64;
constexpr size_t kRowsPerEpoch = kSegmentPages * 50;  // one epoch per segment

/// Newest insertion time of a preload of `rows` rows.
constexpr Timestamp PreloadMaxTs(size_t rows) { return 1 + rows / kRowsPerEpoch; }
constexpr int32_t kF0Domain = 1'000'000;
constexpr int32_t kQueryWidth = kF0Domain / 100;  // 1% of f0
constexpr int64_t kEpochTickMs = 10;
constexpr int64_t kCheckpointEveryMs = 100;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupMs = 1500;  // first queries run slow while caches fill
constexpr size_t kCycleDeltaRows = 1000;       // rows committed while down
// The window is cut into kRounds segments, each followed by a quiesced
// round that measures what the workload's own clients do not.
constexpr int kRounds = 8;
constexpr size_t kRoundDeltaRows = 300;
constexpr int kRoundQueriesPerLayout = 6;
constexpr int kProbeCommits = 200;             // traced count probe
constexpr int kProbeQueriesPerLayout = 5;
constexpr int kLocalScansPerLayout = 10;
constexpr double kRecoveryDeadlineS = 10.0;    // online recovery deadline
// Traced layer-sum checks. A commit's begin, insert and commit spans leave
// only the benchmark's own glue; a recovery's three phases leave the site
// restart and the planning that RecoveryStats does not time.
constexpr double kCommitResidualLimitUs = 100;  // at the median
constexpr double kRecoveryResidualMinMs = -10;
constexpr double kRecoveryResidualMaxMs = 250;

SimConfig MakeSim(uint64_t seed) {
  return SimConfig{
      .disk_force_latency_ns = 2'750'000,
      .disk_random_latency_ns = 2'000'000,
      .disk_bandwidth_bytes_per_sec = 120'000'000,
      .net_latency_ns = 75'000,
      .net_bandwidth_bytes_per_sec = 21'000'000,
      .ns_per_cpu_cycle = 0.167,
      .enable_latency = true,
      .seed = seed,
  };
}

ClusterOptions MakeOptions(uint64_t seed, std::string base_dir,
                           size_t buffer_pages) {
  return ClusterOptions{
      .num_workers = kWorkers,
      .protocol = CommitProtocol::kOptimized3PC,
      .group_commit = true,
      .sim = MakeSim(seed),
      .base_dir = std::move(base_dir),
      .checkpoint_period_ms = 0,  // the benchmark checkpoints itself
      .epoch_tick_ms = kEpochTickMs,
      .buffer_pages = buffer_pages,
      .lock_timeout = std::chrono::milliseconds(500),
      .continue_on_worker_failure = false,
      .worker_server_threads = 8,
      .snapshot_max_lag_epochs = 1,
  };
}

enum class Cycles { kNone, kQuiesced, kOnline };

struct WorkloadSpec {
  const char* name;
  int loaders;
  int analysts;
  Cycles cycles;
  size_t buffer_pages;
  size_t preload_rows;  // per fact table
};

// A 16384-page (64 MB) pool holds both 200k-row fact tables (about 31 MB
// per site); a 1024-page (4 MB) pool holds a fraction of two 100k-row ones
// (about 16 MB per site). The run reports both sizes. Without recovery
// cycles, each loader owns a table and the control thread checkpoints every
// 100 ms; with them, the loaders write the fact tables and each cycle
// checkpoints once.
const WorkloadSpec kWorkloads[] = {
    {"ingest", 3, 0, Cycles::kNone, 16384, 200'000},
    {"scan_ingest", 1, 2, Cycles::kNone, 16384, 200'000},
    {"recover", 2, 0, Cycles::kQuiesced, 1024, 100'000},
    {"recover_online", 2, 0, Cycles::kOnline, 1024, 100'000},
};

// ------------------------------------------------------------------ stats

double Now() { return static_cast<double>(NowNanos()) * 1e-9; }

struct Tail {
  double value = 0;
  std::string label;
  size_t n = 0;
  size_t chunks = 1;
};

/// The p-quantile of sorted, non-empty `s`, interpolated between ranks.
double SortedQuantile(const std::vector<double>& s, double p) {
  const double pos = p * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

/// The highest ladder percentile of `s` with at least ten samples beyond it.
Tail LadderTail(std::vector<double> s) {
  static const std::pair<double, const char*> kLadder[] = {
      {0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"},
      {0.5, "p50"}};
  Tail t;
  t.n = s.size();
  if (s.empty()) return t;
  std::sort(s.begin(), s.end());
  for (const auto& [p, label] : kLadder) {
    // Samples beyond the percentile; the epsilon absorbs 100 * (1 - 0.9)
    // coming out just under 10.
    if (static_cast<double>(s.size()) * (1 - p) + 1e-9 >= 10) {
      t.value = SortedQuantile(s, p);
      t.label = label;
      return t;
    }
  }
  t.value = s.back();
  t.label = "max";
  return t;
}

/// Latency samples in ms, with the time each one completed.
struct Samples {
  std::vector<double> v;
  std::vector<int64_t> at;

  void Add(double x, int64_t when = NowNanos()) {
    v.push_back(x);
    at.push_back(when);
  }
  void Merge(const Samples& o) {
    v.insert(v.end(), o.v.begin(), o.v.end());
    at.insert(at.end(), o.at.begin(), o.at.end());
  }
  size_t n() const { return v.size(); }

  double Quantile(double p) const {
    if (v.empty()) return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    return SortedQuantile(s, p);
  }
  double P50() const { return Quantile(0.5); }
  double Max() const { return v.empty() ? 0 : *std::max_element(v.begin(), v.end()); }

  /// The tail: cut the samples, in completion order, into chunks of `chunk`;
  /// with at least three chunks, the median over chunks of each chunk's
  /// ladder tail, else the ladder tail of all samples. A median of chunk
  /// tails keeps one stall from moving a whole run's figure.
  Tail TailOf(size_t chunk) const {
    const size_t chunks = v.size() / chunk;
    if (chunks < 3) return LadderTail(v);
    std::vector<size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return at[a] < at[b]; });
    Samples tails;
    Tail first;
    for (size_t c = 0; c < chunks; ++c) {
      std::vector<double> part;
      for (size_t k = c * chunk; k < (c + 1) * chunk; ++k) part.push_back(v[order[k]]);
      const Tail t = LadderTail(std::move(part));
      if (c == 0) first = t;
      tails.v.push_back(t.value);
    }
    Tail out;
    out.value = tails.P50();
    out.label = first.label;
    out.n = v.size();
    out.chunks = chunks;
    return out;
  }
};

// Chunk sizes for tails: each commit chunk's tail is its p99, each query
// chunk's its p90.
constexpr size_t kCommitChunk = 1000;
constexpr size_t kQueryChunk = 100;

// ------------------------------------------------------------------ spans

/// In-memory span log for the traced run. Spans are recorded around the
/// benchmark's own calls into the cluster; nothing inside the library is
/// traced. Each thread appends to its own buffer.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;  // 0 = root
    int64_t request;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::vector<Span>* ThreadBuffer() {
    thread_local std::vector<Span>* buf = nullptr;
    thread_local SpanLog* owner = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buf = buffers_.back().get();
      owner = this;
    }
    return buf;
  }

  int64_t NextId() { return next_id_.fetch_add(1) + 1; }

  std::vector<Span> All() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

SpanLog g_spans;

/// A span scope: nests under the thread's current span and inherits its
/// request id (a root span starts a new request).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!g_spans.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = g_spans.NextId();
    span_.parent = current_;
    span_.request = current_ == 0 ? span_.id : request_;
    saved_parent_ = current_;
    saved_request_ = request_;
    current_ = span_.id;
    request_ = span_.request;
    span_.start_ns = NowNanos();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNanos();
    current_ = saved_parent_;
    request_ = saved_request_;
    g_spans.ThreadBuffer()->push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static thread_local int64_t current_;
  static thread_local int64_t request_;
  bool active_ = false;
  SpanLog::Span span_{};
  int64_t saved_parent_ = 0;
  int64_t saved_request_ = 0;
};
thread_local int64_t ScopedSpan::current_ = 0;
thread_local int64_t ScopedSpan::request_ = 0;

// ------------------------------------------------------------------ data

Schema EvalSchema() {
  std::vector<Column> cols;
  for (int i = 0; i < kColumns; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    cols.push_back(Column::Int32(std::move(name)));
  }
  return Schema(std::move(cols));
}

std::vector<Value> EvalRow(int32_t f0) {
  std::vector<Value> row;
  row.reserve(kColumns);
  for (int i = 0; i < kColumns; ++i) row.push_back(Value(f0 + i));
  return row;
}

/// Every f0 value each table is known to hold; the oracle for query and
/// row-count gates. Written only while the writers are paused.
struct Model {
  std::map<TableId, std::vector<int32_t>> f0s;
  std::map<TableId, std::vector<int32_t>> sorted;
  std::map<TableId, std::vector<int64_t>> prefix;

  void Seal() {
    sorted.clear();
    prefix.clear();
    for (auto& [t, v] : f0s) {
      std::vector<int32_t> s = v;
      std::sort(s.begin(), s.end());
      std::vector<int64_t> p(s.size() + 1, 0);
      for (size_t i = 0; i < s.size(); ++i) p[i + 1] = p[i] + s[i];
      sorted[t] = std::move(s);
      prefix[t] = std::move(p);
    }
  }
  /// Rows with lo <= f0 < hi, and the sum of their f0.
  std::pair<size_t, int64_t> Range(TableId t, int32_t lo, int32_t hi) const {
    const auto& s = sorted.at(t);
    const auto& p = prefix.at(t);
    size_t a = std::lower_bound(s.begin(), s.end(), lo) - s.begin();
    size_t b = std::lower_bound(s.begin(), s.end(), hi) - s.begin();
    return {b - a, p[b] - p[a]};
  }
};

// --------------------------------------------------------------- run state

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string spans_file;
};

enum OpKind { kCommit, kQuery, kRecovery, kOpKinds };

/// Failure bookkeeping: gate failures make the run incorrect; operation
/// failures count against `attempted`.
struct Outcome {
  std::mutex mu;
  std::vector<std::string> gate_failures;
  std::atomic<int64_t> attempted[kOpKinds] = {};
  std::atomic<int64_t> failed[kOpKinds] = {};

  void Gate(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (gate_failures.size() < 20) gate_failures.push_back(what);
  }
  bool correct() {
    std::lock_guard<std::mutex> lock(mu);
    return gate_failures.empty();
  }
};

Outcome g_out;

void CountOp(OpKind kind, bool ok) {
  g_out.attempted[kind].fetch_add(1);
  if (!ok) g_out.failed[kind].fetch_add(1);
}

/// The cluster plus the tables the workloads use.
struct Fixture {
  std::unique_ptr<Cluster> cluster;
  std::string dir;
  size_t preload_rows = 0;  // per fact table
  TableId fact_row = 0;
  TableId fact_col = 0;
  std::vector<TableId> load_tables;
  Model model;

  ~Fixture() {
    cluster.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

TableId MustCreate(Cluster* c, const std::string& name, bool columnar) {
  TableSpec spec;
  spec.name = name;
  spec.schema = EvalSchema();
  spec.default_segment_page_budget = kSegmentPages;
  spec.columnar = columnar;
  auto t = c->CreateTable(spec);
  HARBOR_CHECK_OK(t.status());
  return *t;
}

/// The generated preload: f0 per row (same for every set-up of a run).
std::vector<int32_t> GeneratePreload(uint64_t seed, int table_index,
                                     size_t rows) {
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(table_index));
  std::vector<int32_t> f0(rows);
  for (auto& x : f0) x = static_cast<int32_t>(rng() % kF0Domain);
  return f0;
}

/// One bulk-load batch of a table's preload, rows [start, end).
std::vector<LoadRow> LoadBatch(const std::vector<int32_t>& f0, size_t start,
                               size_t end) {
  std::vector<LoadRow> rows;
  rows.reserve(end - start);
  for (size_t i = start; i < end; ++i) {
    LoadRow row;
    row.tuple_id = (uint64_t{1} << 32) + i;
    row.insertion_ts = 1 + static_cast<Timestamp>(i / kRowsPerEpoch);
    row.values = EvalRow(f0[i]);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Builds the cluster, creates and preloads the tables, seals them and
/// checkpoints every worker. `*seconds` is the time spent in the cluster's
/// calls, without generating the preload rows.
std::unique_ptr<Fixture> SetUp(const WorkloadSpec& w, uint64_t seed,
                               const std::string& dir,
                               const std::vector<int32_t>& row_f0,
                               const std::vector<int32_t>& col_f0,
                               double* seconds) {
  const double t_start = Now();
  double generating = 0;
  auto f = std::make_unique<Fixture>();
  f->dir = dir;
  f->preload_rows = row_f0.size();
  auto c = Cluster::Create(MakeOptions(seed, dir, w.buffer_pages));
  HARBOR_CHECK_OK(c.status());
  f->cluster = std::move(c).value();
  Cluster* cl = f->cluster.get();
  f->fact_row = MustCreate(cl, "fact_row", false);
  f->fact_col = MustCreate(cl, "fact_col", true);
  if (w.cycles == Cycles::kNone) {
    for (int i = 0; i < w.loaders; ++i) {
      f->load_tables.push_back(
          MustCreate(cl, "load" + std::to_string(i), false));
    }
  }
  for (auto [table, f0] :
       {std::pair{f->fact_row, &row_f0}, std::pair{f->fact_col, &col_f0}}) {
    for (size_t start = 0; start < f0->size(); start += kPreloadBatch) {
      const size_t end = std::min(f0->size(), start + kPreloadBatch);
      const double g0 = Now();
      std::vector<LoadRow> rows = LoadBatch(*f0, start, end);
      generating += Now() - g0;
      HARBOR_CHECK_OK(cl->BulkLoad(table, rows, end == f0->size()));
    }
  }
  while (cl->authority()->Now() <= PreloadMaxTs(row_f0.size())) cl->AdvanceEpoch();
  // The sites checkpoint in parallel, as independent machines would.
  std::vector<std::thread> ckpt;
  for (int i = 0; i < kWorkers; ++i) {
    ckpt.emplace_back([cl, i] { HARBOR_CHECK_OK(cl->worker(i)->WriteCheckpoint()); });
  }
  for (auto& t : ckpt) t.join();
  *seconds = Now() - t_start - generating;
  return f;
}

// ------------------------------------------------------------- counters

/// Cluster-wide counter snapshot. Per-worker runtime counters restart with
/// a crashed worker, so a snapshot adds what each worker had counted before
/// its crashes (`retired`).
struct Counters {
  int64_t msgs = 0, bytes = 0;
  int64_t forced = 0, disk_busy_ns = 0;
  int64_t buf_hits = 0, buf_misses = 0, evictions = 0, dirty_flushes = 0;
  int64_t lock_acquires = 0;
  int64_t tasks = 0, spares = 0;

  static constexpr int64_t Counters::*kAll[] = {
      &Counters::msgs,       &Counters::bytes,        &Counters::forced,
      &Counters::disk_busy_ns, &Counters::buf_hits,   &Counters::buf_misses,
      &Counters::evictions,  &Counters::dirty_flushes, &Counters::lock_acquires,
      &Counters::tasks,      &Counters::spares};

  Counters operator-(const Counters& o) const {
    Counters d;
    for (auto f : kAll) d.*f = this->*f - o.*f;
    return d;
  }
  Counters& operator+=(const Counters& o) {
    for (auto f : kAll) this->*f += o.*f;
    return *this;
  }
};

Counters WorkerCounters(Worker* w) {
  Counters c;
  if (!w->running()) return c;
  c.forced = w->data_disk()->num_forced_writes() + w->log_disk()->num_forced_writes();
  c.disk_busy_ns = w->data_disk()->total_busy_ns() + w->log_disk()->total_busy_ns();
  c.buf_hits = w->pool()->hits();
  c.buf_misses = w->pool()->misses();
  c.evictions = w->pool()->evictions();
  c.dirty_flushes = w->pool()->dirty_victim_flushes();
  c.lock_acquires = w->locks()->acquires();
  return c;
}

Counters g_retired;  // counts of crashed worker runtimes

Counters Snapshot(Cluster* c) {
  Counters s = g_retired;
  s.msgs += c->network()->sim().num_messages();
  s.bytes += c->network()->sim().num_bytes();
  if (SimDisk* log = c->coordinator()->log_disk()) {
    s.forced += log->num_forced_writes();  // only logging protocols have one
  }
  s.tasks += c->scheduler()->tasks_run();
  s.spares += c->scheduler()->spares_spawned();
  for (int i = 0; i < c->num_workers(); ++i) s += WorkerCounters(c->worker(i));
  return s;
}

void Crash(Cluster* c, int w) {
  g_retired += WorkerCounters(c->worker(w));
  c->CrashWorker(w);
}

// ---------------------------------------------------------------- clients

/// Pause/resume control for the client threads. Pause() returns once no
/// client is inside an operation.
class ClientGate {
 public:
  bool Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !paused_ || stop_; });
    if (stop_) return false;
    ++active_;
    return true;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }
  /// False if a client is still inside an operation at the deadline.
  bool Pause(double timeout_s = 1e9) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!paused_) {
      paused_ = true;
      paused_since_ = NowNanos();
    }
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return active_ == 0; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    if (paused_) paused_ns_ += NowNanos() - paused_since_;
    paused_ = false;
    cv_.notify_all();
  }
  /// A clock that stands still while the clients are paused. Rates are per
  /// second of it, so that quiescing for a recovery or a gate does not
  /// count against them.
  int64_t ActiveClock() {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = NowNanos();
    return now - paused_ns_ - (paused_ ? now - paused_since_ : 0);
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  int active() {
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool stop_ = false;
  int active_ = 0;
  int64_t paused_since_ = 0;
  int64_t paused_ns_ = 0;  // total paused time before paused_since_
};

/// Per-thread results of a loader. `mu` guards them: a loader stuck inside
/// the library may wake while the run reads them.
struct LoaderStats {
  std::mutex mu;
  Samples commit_ms;       // whole transaction, Begin to Commit
  Samples overlap_ms;      // transactions overlapping a recovery
  Samples begin_ms, insert_ms, commit_call_ms;
  Samples residual_us;     // traced: latency minus the three spans
  std::vector<int32_t> committed_f0;
  TableId table = 0;

  void ClearSamples() {
    commit_ms = overlap_ms = begin_ms = insert_ms = commit_call_ms =
        residual_us = Samples{};
  }
};

struct Shared {
  Cluster* cluster = nullptr;
  ClientGate gate;
  std::atomic<bool> measuring{false};
  std::atomic<bool> recovering{false};
  std::atomic<int64_t> commits{0};
};

void LoaderLoop(Shared* sh, LoaderStats* st, uint64_t seed, bool traced) {
  std::mt19937_64 rng(seed);
  Coordinator* coord = sh->cluster->coordinator();
  while (sh->gate.Enter()) {
    const int32_t f0 = static_cast<int32_t>(rng() % kF0Domain);
    const bool measuring = sh->measuring.load();
    const bool overlap_start = sh->recovering.load();
    const int64_t t0 = NowNanos();
    int64_t spans_ns = 0;
    Status s;
    {
      ScopedSpan txn_span("txn");
      int64_t a = NowNanos();
      Result<TxnId> txn = [&] {
        ScopedSpan sp("coord.begin");
        return coord->Begin();
      }();
      int64_t b = NowNanos();
      if (measuring) st->begin_ms.Add((b - a) * 1e-6);
      spans_ns += b - a;
      s = txn.status();
      if (s.ok()) {
        a = NowNanos();
        {
          ScopedSpan sp("coord.insert");
          s = coord->Insert(*txn, st->table, EvalRow(f0));
        }
        b = NowNanos();
        if (measuring) st->insert_ms.Add((b - a) * 1e-6);
        spans_ns += b - a;
      }
      if (s.ok()) {
        a = NowNanos();
        {
          ScopedSpan sp("coord.commit");
          s = coord->Commit(*txn);
        }
        b = NowNanos();
        if (measuring) st->commit_call_ms.Add((b - a) * 1e-6);
        spans_ns += b - a;
      } else if (txn.ok()) {
        (void)coord->Abort(*txn);
      }
    }
    const int64_t t1 = NowNanos();
    const double ms = (t1 - t0) * 1e-6;
    const int64_t done = sh->gate.ActiveClock();
    std::lock_guard<std::mutex> lock(st->mu);
    if (s.ok()) {
      st->committed_f0.push_back(f0);
      sh->commits.fetch_add(1);
      if (measuring) {
        st->commit_ms.Add(ms, done);
        if (traced) st->residual_us.Add((t1 - t0 - spans_ns) * 1e-3);
        if (overlap_start || sh->recovering.load()) st->overlap_ms.Add(ms);
      }
    }
    CountOp(kCommit, s.ok());
    sh->gate.Exit();
  }
}

struct QueryStats {
  Samples row_ms, col_ms;
};

Predicate F0Range(int32_t lo, int32_t hi) {
  Predicate p;
  p.And("f0", CompareOp::kGe, Value(lo)).And("f0", CompareOp::kLt, Value(hi));
  return p;
}

/// One snapshot query over a 1% f0 range, checked against the model.
bool RunQuery(Cluster* c, const Model& model, TableId table, int32_t lo,
              double* ms) {
  const int32_t hi = lo + kQueryWidth;
  const int64_t t0 = NowNanos();
  Result<std::vector<Tuple>> rows = [&] {
    ScopedSpan span("query");
    ScopedSpan call("coord.query");
    return c->coordinator()->Query(table, F0Range(lo, hi));
  }();
  *ms = (NowNanos() - t0) * 1e-6;
  if (!rows.ok()) return false;
  const auto [want_n, want_sum] = model.Range(table, lo, hi);
  int64_t sum = 0;
  bool in_range = true;
  for (const Tuple& t : *rows) {
    const int32_t f0 = t.value(0).AsInt32();
    in_range = in_range && f0 >= lo && f0 < hi;
    sum += f0;
  }
  if (rows->size() != want_n || sum != want_sum || !in_range) {
    g_out.Gate("query on table " + std::to_string(table) + " [" +
               std::to_string(lo) + "," + std::to_string(hi) + ") returned " +
               std::to_string(rows->size()) + " rows, want " +
               std::to_string(want_n));
  }
  return true;
}

void AnalystLoop(Shared* sh, const Model* model, TableId row, TableId col,
                 QueryStats* st, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int q = 0; sh->gate.Enter(); ++q) {
    const bool columnar = q % 2 == 1;
    const int32_t lo = static_cast<int32_t>(rng() % (kF0Domain - kQueryWidth));
    const bool measuring = sh->measuring.load();
    double ms = 0;
    const bool ok = RunQuery(sh->cluster, *model, columnar ? col : row, lo, &ms);
    CountOp(kQuery, ok);
    if (ok && measuring) {
      (columnar ? st->col_ms : st->row_ms).Add(ms, sh->gate.ActiveClock());
    }
    sh->gate.Exit();
  }
}

// ------------------------------------------------------------------ gates

/// An order-independent digest of every tuple of one replica, SEE DELETED:
/// values in logical column order, tuple id, insertion and deletion times.
struct Digest {
  size_t rows = 0;
  uint64_t sum = 0;
  uint64_t x = 0;
  bool operator==(const Digest&) const = default;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// Worker w's replica of `table` (every table has one on every worker).
Result<TableObject*> ReplicaOf(Cluster* c, TableId table, int w) {
  HARBOR_ASSIGN_OR_RETURN(const TableDef* def, c->catalog()->GetTable(table));
  for (const ReplicaPlacement& p : def->replicas) {
    if (p.site == Cluster::WorkerSite(w)) {
      return c->worker(w)->local_catalog()->GetObject(p.object_id);
    }
  }
  return Status::NotFound("no replica of table " + std::to_string(table));
}

/// `after` > 0 restricts the digest to tuples inserted after it, which
/// segment pruning reads without touching the sealed preload.
Result<Digest> ReplicaDigest(Cluster* c, TableId table, int w, Timestamp after) {
  HARBOR_ASSIGN_OR_RETURN(TableObject * obj, ReplicaOf(c, table, w));
  HARBOR_ASSIGN_OR_RETURN(const TableDef* def, c->catalog()->GetTable(table));
  HARBOR_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                          def->logical_schema.MappingFrom(obj->schema));
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kSeeDeleted;
  spec.has_insertion_after = after > 0;
  spec.insertion_after = after;
  SeqScanOperator scan(c->worker(w)->store(), obj, spec);
  HARBOR_RETURN_NOT_OK(scan.Open());
  Digest d;
  while (true) {
    HARBOR_ASSIGN_OR_RETURN(std::optional<Tuple> next, scan.Next());
    if (!next.has_value()) break;
    const Tuple& t = *next;
    uint64_t h = Mix(Mix(Mix(0, t.tuple_id()), t.insertion_ts()), t.deletion_ts());
    for (size_t col : mapping) {
      h = Mix(h, static_cast<uint32_t>(t.value(col).AsInt32()));
    }
    d.rows += 1;
    d.sum += h;
    d.x ^= Mix(h, 1);
  }
  return d;
}

/// Replicas of every table are bit-identical (values, tuple ids, insertion
/// and deletion times) and hold the rows the model expects. With
/// `after_preload` only the rows inserted since the preload are compared
/// (and counted); the end-of-run check compares everything.
void CheckReplicas(Fixture* f, const std::string& when, bool after_preload) {
  Cluster* c = f->cluster.get();
  for (const auto& [table, f0s] : f->model.f0s) {
    const bool fact = table == f->fact_row || table == f->fact_col;
    const Timestamp after = after_preload ? PreloadMaxTs(f->preload_rows) : 0;
    const size_t want = f0s.size() - (after_preload && fact ? f->preload_rows : 0);
    // Each site scans its own replica, as separate machines would.
    std::vector<Digest> digests(static_cast<size_t>(c->num_workers()));
    std::vector<std::thread> scans;
    for (int w = 0; w < c->num_workers(); ++w) {
      scans.emplace_back([&, w, table = table] {
        Result<Digest> d = ReplicaDigest(c, table, w, after);
        if (d.ok()) {
          digests[static_cast<size_t>(w)] = *d;
        } else {
          g_out.Gate(when + ": scanning replica " + std::to_string(w) + ": " +
                     d.status().ToString());
        }
      });
    }
    for (auto& t : scans) t.join();
    if (digests[0].rows != want) {
      g_out.Gate(when + ": table " + std::to_string(table) + " holds " +
                 std::to_string(digests[0].rows) + " rows, want " +
                 std::to_string(want));
    }
    for (size_t w = 1; w < digests.size(); ++w) {
      if (!(digests[w] == digests[0])) {
        g_out.Gate(when + ": table " + std::to_string(table) + " replica " +
                   std::to_string(w) + " differs from replica 0");
      }
    }
  }
}

// --------------------------------------------------------------- the run

struct RecoverySample {
  double offline_ms = 0, total_ms = 0;
  double phase1_ms = 0, phase2_ms = 0, phase3_ms = 0;
  int phase2_rounds = 0;
  size_t tuples = 0;
  Counters delta;
  bool quiesced = true;
  bool missed = false;  // abandoned at its deadline
};

struct Run {
  const WorkloadSpec* w = nullptr;
  Args args;
  std::unique_ptr<Fixture> fx;
  Shared sh;
  std::vector<std::unique_ptr<LoaderStats>> loaders;
  std::vector<std::unique_ptr<QueryStats>> analysts;
  std::vector<std::thread> threads;
  Samples ckpt_ms;
  std::vector<RecoverySample> recoveries;
  std::vector<RecoverySample> round_recoveries;
  QueryStats round_queries;
  double round_query_s = 0;
  double gate_s = 0;  // time spent in gates inside the window
  int next_crash = 0;
  /// Measured segments, on ClientGate::ActiveClock.
  std::vector<std::pair<int64_t, int64_t>> segments;
  /// The cluster can no longer be driven: a recovery failed or missed its
  /// deadline. The run reports what it has and ends without teardown.
  bool halted = false;
  int threads_alive_max = 0;
  std::vector<std::pair<const char*, double>> phases;  // wall time per stage
  double phase_start = 0;

  void Phase(const char* name) {
    const double now = Now();
    phases.emplace_back(name, now - phase_start);
    phase_start = now;
  }
};

void CheckpointAll(Run* r) {
  Cluster* c = r->fx->cluster.get();
  for (int i = 0; i < c->num_workers(); ++i) {
    const int64_t t0 = NowNanos();
    Status s;
    {
      ScopedSpan span("ckpt.write");
      s = c->worker(i)->WriteCheckpoint();
    }
    r->ckpt_ms.Add((NowNanos() - t0) * 1e-6);
    if (!s.ok()) g_out.Gate("WriteCheckpoint: " + s.ToString());
  }
}

/// Folds the loaders' committed rows into the model (writers paused).
void AbsorbCommits(Run* r) {
  for (auto& l : r->loaders) {
    std::lock_guard<std::mutex> lock(l->mu);
    auto& dst = r->fx->model.f0s[l->table];
    dst.insert(dst.end(), l->committed_f0.begin(), l->committed_f0.end());
    l->committed_f0.clear();
  }
}

/// One crash-recover cycle (§6.4; §6.5 when online): crash a worker with
/// the loaders paused, let them commit `delta_rows` while it is down,
/// then recover it — with the loaders paused, or still running when
/// online — and check it against its buddies.
void RecoveryCycle(Run* r, bool online, size_t delta_rows,
                   std::vector<RecoverySample>* out) {
  Cluster* c = r->fx->cluster.get();
  const int w = r->next_crash;
  r->next_crash = (r->next_crash + 1) % c->num_workers();
  r->sh.gate.Pause();
  CheckpointAll(r);
  Crash(c, w);
  const int64_t before = r->sh.commits.load();
  r->sh.gate.Resume();
  const double down_deadline = Now() + 30;
  while (r->sh.commits.load() - before < static_cast<int64_t>(delta_rows) &&
         Now() < down_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!online) r->sh.gate.Pause();

  const Counters c0 = Snapshot(c);
  r->sh.recovering.store(true);
  const int64_t t0 = NowNanos();
  auto task = std::make_shared<std::packaged_task<Result<RecoveryStats>()>>(
      [c, w] {
        ScopedSpan span("recovery");
        return c->RecoverWorker(w, RecoveryOptions{});
      });
  std::future<Result<RecoveryStats>> done = task->get_future();
  std::thread runner([task] { (*task)(); });
  const bool in_time =
      done.wait_for(std::chrono::duration<double>(kRecoveryDeadlineS)) ==
      std::future_status::ready;
  const double wall_ms = (NowNanos() - t0) * 1e-6;
  r->sh.recovering.store(false);
  if (!in_time) {
    // The library offers no way to cancel a recovery: the run is halted.
    // The runner thread stays behind and the process ends with _exit.
    std::fprintf(stderr, "recovery of worker %d missed its %.0f s deadline\n",
                 w, kRecoveryDeadlineS);
    CountOp(kRecovery, false);
    // A missed deadline counts at the time the recovery was abandoned.
    RecoverySample missed;
    missed.quiesced = false;
    missed.missed = true;
    missed.total_ms = missed.offline_ms = wall_ms;
    out->push_back(missed);
    r->halted = true;
    r->threads.push_back(std::move(runner));
    return;
  }
  runner.join();
  Result<RecoveryStats> stats = done.get();
  CountOp(kRecovery, stats.ok());
  if (!stats.ok()) {
    g_out.Gate("RecoverWorker(" + std::to_string(w) + "): " +
               stats.status().ToString());
    r->halted = true;
    return;
  }
  if (online && !r->sh.gate.Pause(kRecoveryDeadlineS)) {
    r->halted = true;
    return;
  }
  RecoverySample s;
  s.quiesced = !online;
  s.delta = Snapshot(c) - c0;
  s.total_ms = wall_ms;
  s.offline_ms = stats->offline_seconds * 1e3;
  s.phase1_ms = stats->phase1_seconds * 1e3;
  s.phase2_ms = stats->phase2_seconds * 1e3;
  s.phase3_ms = stats->phase3_seconds * 1e3;
  for (const auto& o : stats->objects) {
    s.phase2_rounds = std::max(s.phase2_rounds, o.phase2_rounds);
    s.tuples += o.phase2_tuples_copied + o.phase3_tuples_copied +
                o.phase2_deletions_copied + o.phase3_deletions_copied;
  }
  out->push_back(s);

  const double g0 = Now();
  AbsorbCommits(r);
  CheckReplicas(r->fx.get(), "after recovering worker " + std::to_string(w),
                /*after_preload=*/true);
  r->gate_s += Now() - g0;
  r->sh.gate.Resume();
}

void StartClients(Run* r) {
  Fixture* f = r->fx.get();
  for (int i = 0; i < r->w->loaders; ++i) {
    auto st = std::make_unique<LoaderStats>();
    st->table = r->w->cycles == Cycles::kNone
                    ? f->load_tables[static_cast<size_t>(i)]
                    : (i % 2 == 0 ? f->fact_row : f->fact_col);
    f->model.f0s[st->table];  // gate every table a loader writes
    r->loaders.push_back(std::move(st));
  }
  for (int i = 0; i < r->w->analysts; ++i) {
    r->analysts.push_back(std::make_unique<QueryStats>());
  }
  f->model.Seal();
  for (int i = 0; i < r->w->loaders; ++i) {
    r->threads.emplace_back(LoaderLoop, &r->sh, r->loaders[i].get(),
                            r->args.seed * 7919 + 100 + i, r->args.trace);
  }
  for (int i = 0; i < r->w->analysts; ++i) {
    r->threads.emplace_back(AnalystLoop, &r->sh, &f->model, f->fact_row,
                            f->fact_col, r->analysts[i].get(),
                            r->args.seed * 7919 + 200 + i);
  }
}

/// Quiesced snapshot queries, for workloads whose window runs none.
void RoundQueries(Run* r, std::mt19937_64* rng) {
  Fixture* f = r->fx.get();
  f->model.Seal();
  const double t0 = Now();
  for (int q = 0; q < 2 * kRoundQueriesPerLayout; ++q) {
    const bool columnar = q % 2 == 1;
    const int32_t lo = static_cast<int32_t>((*rng)() % (kF0Domain - kQueryWidth));
    double ms = 0;
    const bool ok = RunQuery(f->cluster.get(), f->model,
                             columnar ? f->fact_col : f->fact_row, lo, &ms);
    CountOp(kQuery, ok);
    if (ok) (columnar ? r->round_queries.col_ms : r->round_queries.row_ms).Add(ms);
  }
  r->round_query_s += Now() - t0;
}

/// One measured segment of the window: the workload's clients for
/// `seconds`, with the control thread checkpointing or cycling recoveries.
/// Returns the measured time, without the gates.
double Segment(Run* r, double seconds) {
  Cluster* c = r->fx->cluster.get();
  r->sh.measuring.store(true);
  const double start = Now();
  const int64_t active_start = r->sh.gate.ActiveClock();
  const double gate0 = r->gate_s;
  const double end = start + seconds;
  if (r->w->cycles == Cycles::kNone) {
    double next = start;
    while (Now() < end) {
      next += kCheckpointEveryMs * 1e-3;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, next - Now())));
      r->threads_alive_max =
          std::max(r->threads_alive_max, c->scheduler()->threads_alive());
      CheckpointAll(r);
    }
  } else {
    while (Now() < end && !r->halted) {
      RecoveryCycle(r, r->w->cycles == Cycles::kOnline, kCycleDeltaRows,
                    &r->recoveries);
      r->threads_alive_max =
          std::max(r->threads_alive_max, c->scheduler()->threads_alive());
    }
  }
  r->sh.measuring.store(false);
  r->segments.emplace_back(active_start, r->sh.gate.ActiveClock());
  return Now() - start - (r->gate_s - gate0);
}

/// A quiesced round between segments: snapshot queries when the workload
/// has no analysts, a recovery cycle when it has no cycles of its own.
void Round(Run* r, std::mt19937_64* rng) {
  r->sh.gate.Pause();
  AbsorbCommits(r);
  if (r->w->analysts == 0) RoundQueries(r, rng);
  if (r->w->cycles == Cycles::kNone) {
    RecoveryCycle(r, false, kRoundDeltaRows, &r->round_recoveries);
  } else {
    r->sh.gate.Resume();
  }
}

/// Completions in each whole one-second slice of the measured segments, on
/// the clients' active clock.
Samples PerSecond(const Samples& done,
                  const std::vector<std::pair<int64_t, int64_t>>& segments) {
  constexpr int64_t kSecond = 1'000'000'000;
  Samples counts;
  for (const auto& [start, end] : segments) {
    const size_t first = counts.v.size();
    counts.v.resize(first + static_cast<size_t>((end - start) / kSecond), 0.0);
    for (int64_t t : done.at) {
      if (t < start) continue;
      const size_t k = first + static_cast<size_t>((t - start) / kSecond);
      if (k < counts.v.size()) counts.v[k] += 1;
    }
  }
  return counts;
}

/// Stops and joins every client thread.
void StopClients(Run* r) {
  r->sh.gate.Stop();
  for (auto& t : r->threads) t.join();
  r->threads.clear();
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`.
std::string Json(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Traced runs: exact per-operation counts from one client with every other
/// client paused — single-row commits, then snapshot queries.
struct ProbeCounts {
  Counters per_commit_total;
  Counters per_query_total;
  int commits = 0;
  int queries = 0;
};

ProbeCounts CountProbe(Run* r) {
  Fixture* f = r->fx.get();
  Cluster* c = f->cluster.get();
  Coordinator* coord = c->coordinator();
  ProbeCounts p;
  std::mt19937_64 rng(r->args.seed * 7919 + 400);
  const TableId table = r->loaders[0]->table;
  const Counters c0 = Snapshot(c);
  for (int i = 0; i < kProbeCommits; ++i) {
    const int32_t f0 = static_cast<int32_t>(rng() % kF0Domain);
    Status s = coord->InsertTxn(table, EvalRow(f0));
    CountOp(kCommit, s.ok());
    if (s.ok()) {
      f->model.f0s[table].push_back(f0);
      ++p.commits;
    }
  }
  const Counters c1 = Snapshot(c);
  p.per_commit_total = c1 - c0;
  f->model.Seal();
  for (int q = 0; q < 2 * kProbeQueriesPerLayout; ++q) {
    const int32_t lo = static_cast<int32_t>(rng() % (kF0Domain - kQueryWidth));
    double ms = 0;
    const bool ok = RunQuery(c, f->model, q % 2 ? f->fact_col : f->fact_row,
                             lo, &ms);
    CountOp(kQuery, ok);
    p.queries += ok;
  }
  p.per_query_total = Snapshot(c) - c1;
  return p;
}

/// The queries' predicate through a local SeqScanOperator on worker 0's
/// replica: the executor and storage share of a query, without coordinator
/// and network.
std::pair<Samples, Samples> LocalScans(Run* r) {
  Fixture* f = r->fx.get();
  Cluster* c = f->cluster.get();
  Worker* w = c->worker(0);
  std::mt19937_64 rng(r->args.seed * 7919 + 500);
  std::pair<Samples, Samples> out;
  const Timestamp as_of = c->authority()->StableTime();
  for (int q = 0; q < 2 * kLocalScansPerLayout; ++q) {
    const bool columnar = q % 2 == 1;
    const TableId table = columnar ? f->fact_col : f->fact_row;
    const int32_t lo = static_cast<int32_t>(rng() % (kF0Domain - kQueryWidth));
    auto obj = ReplicaOf(c, table, 0);
    HARBOR_CHECK_OK(obj.status());
    ScanSpec spec;
    spec.object_id = (*obj)->object_id;
    spec.mode = ScanMode::kVisible;
    spec.as_of = as_of;
    spec.predicate = F0Range(lo, lo + kQueryWidth);
    const int64_t t0 = NowNanos();
    Result<std::vector<Tuple>> rows = [&] {
      ScopedSpan span("exec.scan_local");
      SeqScanOperator scan(w->store(), *obj, spec);
      return CollectAll(&scan);
    }();
    const double ms = (NowNanos() - t0) * 1e-6;
    const size_t want = f->model.Range(table, lo, lo + kQueryWidth).first;
    if (!rows.ok() || rows->size() != want) {
      g_out.Gate("local scan of table " + std::to_string(table) +
                 " returned a wrong row count");
    }
    (columnar ? out.second : out.first).Add(ms);
  }
  return out;
}

/// Measures what recording one span costs, to report beside traced minus
/// untraced.
double NanosPerSpan() {
  SpanLog log;
  constexpr int kN = 200000;
  std::vector<SpanLog::Span>* buf = log.ThreadBuffer();
  buf->reserve(kN);
  const int64_t t0 = NowNanos();
  for (int i = 0; i < kN; ++i) {
    SpanLog::Span s{"x", NowNanos(), 0, log.NextId(), 0, 0};
    s.end_ns = NowNanos();
    buf->push_back(s);
  }
  return static_cast<double>(NowNanos() - t0) / kN;
}

/// Self time per span name: duration minus the time its children cover.
std::map<std::string, std::pair<double, int64_t>> SelfTimes(
    const std::vector<SpanLog::Span>& spans) {
  std::map<int64_t, int64_t> child_ns;
  for (const auto& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<double, int64_t>> out;
  for (const auto& s : spans) {
    auto& e = out[s.name];
    e.first += (s.end_ns - s.start_ns - child_ns[s.id]) * 1e-6;
    e.second += 1;
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanLog::Span>& spans) {
  std::ofstream out(path);
  for (const auto& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
}

int64_t DirBytes(const std::string& dir) {
  int64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += static_cast<int64_t>(e.file_size(ec));
  }
  return n;
}

template <typename F>
double MedianOf(const std::vector<RecoverySample>& v, F field) {
  Samples s;
  for (const auto& x : v) s.Add(static_cast<double>(field(x)));
  return s.P50();
}

}  // namespace hb

int main(int argc, char** argv) {
  using namespace hb;
  Args args;
  bool args_ok = argc % 2 == 1;
  for (int i = 1; i + 1 < argc && args_ok; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") args.workload = v;
      else if (k == "--seed") args.seed = std::stoull(v);
      else if (k == "--seconds") args.seconds = std::stod(v);
      else if (k == "--trace") args.trace = v == "1";
      else if (k == "--scratch") args.scratch = v;
      else if (k == "--spans") args.spans_file = v;
      else args_ok = false;
    } catch (const std::exception&) {
      args_ok = false;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (!args_ok || spec == nullptr || args.scratch.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: harborbench --workload <ingest|scan_ingest|recover|"
                 "recover_online> --seed N --seconds S --trace 0|1 "
                 "--scratch DIR [--spans FILE]\n");
    return 2;
  }
  fs::create_directories(args.scratch);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int generator_threads = spec->loaders + spec->analysts + 1;
  if (generator_threads > nproc) {
    std::fprintf(stderr, "warning: %d generator threads on %ld CPUs\n",
                 generator_threads, nproc);
  }

  // Inputs come from the seed alone.
  const std::vector<int32_t> row_f0 = GeneratePreload(args.seed, 0, spec->preload_rows);
  const std::vector<int32_t> col_f0 = GeneratePreload(args.seed, 1, spec->preload_rows);

  const double t_main = Now();
  // Set up several times; setup_s is the median, the last fixture is used.
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fx.reset();
    double seconds = 0;
    fx = SetUp(*spec, args.seed, args.scratch + "/cluster-" + std::to_string(k),
               row_f0, col_f0, &seconds);
    setup_s.Add(seconds);
  }
  const int64_t site_bytes = DirBytes(fx->dir + "/site1");

  Run run;
  Run* r = &run;
  r->phase_start = t_main;
  r->Phase("setup");
  r->w = spec;
  r->args = args;
  r->fx = std::move(fx);
  r->sh.cluster = r->fx->cluster.get();
  Cluster* c = r->fx->cluster.get();
  r->fx->model.f0s[r->fx->fact_row] = row_f0;
  r->fx->model.f0s[r->fx->fact_col] = col_f0;
  StartClients(r);
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  r->Phase("warmup");

  // Traced runs first measure an untraced reference segment, then trace.
  double ref_commit_p50 = 0;
  std::unique_ptr<obs::Observer> observer;
  if (args.trace) Segment(r, args.seconds / 2);
  if (args.trace && !r->halted) {
    r->sh.gate.Pause();
    Samples ref;
    for (auto& l : r->loaders) {
      ref.Merge(l->commit_ms);
      l->ClearSamples();
    }
    ref_commit_p50 = ref.P50();
    for (auto& a : r->analysts) *a = QueryStats{};
    r->recoveries.clear();
    r->segments.clear();
    r->ckpt_ms = Samples{};
    observer = std::make_unique<obs::Observer>();
    observer->Install();
    g_spans.set_enabled(true);
    r->sh.gate.Resume();
    r->Phase("reference_window");
  }
  // Segments and rounds alternate, so that every metric's samples spread
  // over the whole run rather than over one part of it.
  double window_s = 0;
  Counters window;  // summed over the segments
  std::mt19937_64 rng(args.seed * 7919 + 300);
  for (int k = 0; k < kRounds && !r->halted; ++k) {
    const Counters s0 = Snapshot(c);
    window_s += Segment(r, args.seconds / kRounds);
    if (r->halted) break;
    window += Snapshot(c) - s0;
    Round(r, &rng);
  }
  const int spans_in_window = static_cast<int>(g_spans.All().size());
  r->Phase("segments_and_rounds");

  std::pair<Samples, Samples> local;
  ProbeCounts probe;
  if (!r->halted) {
    r->sh.gate.Pause();
    AbsorbCommits(r);
    if (args.trace) {
      probe = CountProbe(r);
      local = LocalScans(r);
      r->Phase("probes");
    }
    CheckReplicas(r->fx.get(), "end of run", /*after_preload=*/false);
    r->Phase("final_gate");
  }
  g_spans.set_enabled(false);
  if (observer) observer->Uninstall();
  if (r->halted) {
    // Clients still inside the library after a grace period are stuck:
    // their operations count as failed.
    r->sh.gate.Stop();
    if (!r->sh.gate.Pause(2.0)) {
      for (int i = r->sh.gate.active(); i > 0; --i) {
        CountOp(kCommit, false);
      }
    }
  } else {
    StopClients(r);
  }

  // ---------------------------------------------------------------- report
  Samples commits, overlap, begin_ms, insert_ms, commit_call_ms, residual_us;
  for (auto& l : r->loaders) {
    std::lock_guard<std::mutex> lock(l->mu);
    commits.Merge(l->commit_ms);
    overlap.Merge(l->overlap_ms);
    begin_ms.Merge(l->begin_ms);
    insert_ms.Merge(l->insert_ms);
    commit_call_ms.Merge(l->commit_call_ms);
    residual_us.Merge(l->residual_us);
  }
  // Rates are the median over the segments' one-second slices, so that one
  // stalled second does not move the run's figure.
  const Samples commit_slices = PerSecond(commits, r->segments);
  Samples query_slices;
  QueryStats queries;
  double query_qps = 0;
  if (spec->analysts > 0) {
    for (auto& a : r->analysts) {
      queries.row_ms.Merge(a->row_ms);
      queries.col_ms.Merge(a->col_ms);
    }
    Samples all = queries.row_ms;
    all.Merge(queries.col_ms);
    query_slices = PerSecond(all, r->segments);
    query_qps = query_slices.P50();
  } else {
    queries = r->round_queries;
    query_qps = (queries.row_ms.n() + queries.col_ms.n()) /
                std::max(r->round_query_s, 1e-9);
  }
  const std::vector<RecoverySample>& recs =
      spec->cycles == Cycles::kNone ? r->round_recoveries : r->recoveries;
  // Per-layer recovery counts come from quiesced recoveries only: an online
  // recovery's counter deltas include the loaders' traffic.
  std::vector<RecoverySample> completed, quiesced;
  for (const auto& s : recs) {
    if (!s.missed) completed.push_back(s);
    if (s.quiesced) quiesced.push_back(s);
  }

  const Tail commit_tail = commits.TailOf(kCommitChunk);
  const Tail row_tail = queries.row_ms.TailOf(kQueryChunk);
  const Tail col_tail = queries.col_ms.TailOf(kQueryChunk);
  const Tail overlap_tail = overlap.TailOf(kCommitChunk);
  int64_t attempted = 0, failed = 0;
  for (int k = 0; k < kOpKinds; ++k) {
    attempted += g_out.attempted[k].load();
    failed += g_out.failed[k].load();
  }
  attempted = std::max<int64_t>(1, attempted);
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s.P50(), "s"},
        {"commit_tps", commit_slices.P50(), "1/s"},
        {"commit_p50_ms", commits.P50(), "ms"},
        {"commit_tail_ms", commit_tail.value, "ms"},
        {"query_qps", query_qps, "1/s"},
        {"scan_row_p50_ms", queries.row_ms.P50(), "ms"},
        {"scan_row_tail_ms", row_tail.value, "ms"},
        {"scan_col_p50_ms", queries.col_ms.P50(), "ms"},
        {"scan_col_tail_ms", col_tail.value, "ms"},
        {"recovery_offline_ms",
         MedianOf(recs, [](const RecoverySample& s) { return s.offline_ms; }), "ms"},
        {"recovery_total_ms",
         MedianOf(recs, [](const RecoverySample& s) { return s.total_ms; }), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    if (spec->cycles == Cycles::kOnline) {
      metrics.push_back({"recovery_commit_tail_ms", overlap_tail.value, "ms"});
      metrics.push_back({"failed_frac", failed_frac, "ratio"});
    }
  } else {
    const Counters& pc = probe.per_commit_total;
    const Counters& pq = probe.per_query_total;
    const double nc = std::max(1, probe.commits);
    const double nq = std::max(1, probe.queries);
    auto rec = [&](auto field) { return MedianOf(quiesced, field); };
    auto hist_p50 = [&](obs::HistogramId id, double scale) {
      Samples s;
      if (!observer) return 0.0;  // the run halted before tracing began
      for (SiteId site : observer->Sites()) {
        const auto& h = observer->MetricsFor(site).histogram(id);
        if (h.count() > 0) s.Add(h.Percentile(0.5) * scale);
      }
      return s.P50();
    };
    const Tail begin_tail = begin_ms.TailOf(kCommitChunk);
    const Tail insert_tail = insert_ms.TailOf(kCommitChunk);
    const Tail commit_call_tail = commit_call_ms.TailOf(kCommitChunk);
    double recovery_residual = 0;
    for (const auto& s : completed) {
      const double res = s.total_ms - (s.phase1_ms + s.phase2_ms + s.phase3_ms);
      if (std::abs(res) > std::abs(recovery_residual)) recovery_residual = res;
      if (res < kRecoveryResidualMinMs || res > kRecoveryResidualMaxMs) {
        g_out.Gate("recovery phases miss RecoverWorker's wall time by " +
                   Json(res) + " ms");
      }
    }
    const double residual_p99 = residual_us.Quantile(0.99);
    if (residual_us.P50() > kCommitResidualLimitUs) {
      g_out.Gate("commit spans miss the transaction latency by " +
                 Json(residual_us.P50()) + " us at the median");
    }
    if (pq.lock_acquires != 0) {
      g_out.Gate("snapshot queries took " + std::to_string(pq.lock_acquires) +
                 " locks");
    }
    metrics = {
        {"runtime.tasks_per_commit", pc.tasks / nc, "count"},
        {"runtime.spares_spawned", static_cast<double>(window.spares), "count"},
        {"runtime.threads_alive", static_cast<double>(r->threads_alive_max), "count"},
        {"net.msgs_per_commit", pc.msgs / nc, "count"},
        {"net.bytes_per_commit", pc.bytes / nc, "bytes"},
        {"net.bytes_per_query", pq.bytes / nq, "bytes"},
        {"net.msgs_per_recovery", rec([](const RecoverySample& s) { return s.delta.msgs; }), "count"},
        {"net.bytes_per_recovery", rec([](const RecoverySample& s) { return s.delta.bytes; }), "bytes"},
        {"disk.forced_per_commit", pc.forced / nc, "count"},
        {"disk.forced_per_recovery", rec([](const RecoverySample& s) { return s.delta.forced; }), "count"},
        {"disk.busy_ms_per_recovery", rec([](const RecoverySample& s) { return s.delta.disk_busy_ns * 1e-6; }), "ms"},
        {"buf.hit_ratio",
         window.buf_hits / std::max(1.0, static_cast<double>(window.buf_hits + window.buf_misses)),
         "ratio"},
        {"buf.misses_per_query", pq.buf_misses / nq, "count"},
        {"buf.misses_per_recovery", rec([](const RecoverySample& s) { return s.delta.buf_misses; }), "count"},
        {"buf.evictions", static_cast<double>(window.evictions), "count"},
        {"buf.dirty_victim_flushes", static_cast<double>(window.dirty_flushes), "count"},
        {"lock.acquires_per_commit", pc.lock_acquires / nc, "count"},
        {"lock.acquires_per_query", pq.lock_acquires / nq, "count"},
        {"coord.begin_p50_ms", begin_ms.P50(), "ms"},
        {"coord.begin_tail_ms", begin_tail.value, "ms"},
        {"coord.insert_p50_ms", insert_ms.P50(), "ms"},
        {"coord.insert_tail_ms", insert_tail.value, "ms"},
        {"coord.commit_p50_ms", commit_call_ms.P50(), "ms"},
        {"coord.commit_tail_ms", commit_call_tail.value, "ms"},
        {"ckpt.write_p50_ms", r->ckpt_ms.P50(), "ms"},
        {"ckpt.write_max_ms", r->ckpt_ms.Max(), "ms"},
        {"ckpt.count", static_cast<double>(r->ckpt_ms.n()), "count"},
        {"recovery.phase1_ms", rec([](const RecoverySample& s) { return s.phase1_ms; }), "ms"},
        {"recovery.phase2_ms", rec([](const RecoverySample& s) { return s.phase2_ms; }), "ms"},
        {"recovery.phase3_ms", MedianOf(completed, [](const RecoverySample& s) { return s.phase3_ms; }), "ms"},
        {"recovery.phase2_rounds", rec([](const RecoverySample& s) { return s.phase2_rounds; }), "count"},
        {"recovery.tuples_copied", rec([](const RecoverySample& s) { return s.tuples; }), "count"},
        {"recovery.ms_per_ktuple",
         rec([](const RecoverySample& s) { return s.total_ms * 1e3 / std::max<size_t>(1, s.tuples); }),
         "ms"},
        {"exec.scan_row_local_ms", local.first.P50(), "ms"},
        {"exec.scan_col_local_ms", local.second.P50(), "ms"},
        {"obs.vote_round_trip_p50_ms", hist_p50(obs::HistogramId::kVoteRoundTripNs, 1e-6), "ms"},
        {"obs.recovery_chunk_apply_p50_ms", hist_p50(obs::HistogramId::kRecoveryChunkApplyNs, 1e-6), "ms"},
        {"obs.recovery_chunk_stall_p50_ms", hist_p50(obs::HistogramId::kRecoveryChunkStallNs, 1e-6), "ms"},
        {"obs.recovery_chunk_bytes_p50", hist_p50(obs::HistogramId::kRecoveryChunkBytes, 1), "bytes"},
        {"check.commit_residual_p99_us", residual_p99, "us"},
        {"check.recovery_residual_ms", recovery_residual, "ms"},
        {"trace.overhead_commit_p50_ms", commits.P50() - ref_commit_p50, "ms"},
        {"trace.ns_per_span", NanosPerSpan(), "ns"},
        {"trace.spans", static_cast<double>(spans_in_window), "count"},
        {"sys.nproc", static_cast<double>(nproc), "count"},
        {"sys.generator_threads", static_cast<double>(generator_threads), "count"},
    };
  }

  // Human-readable report and the recorded configuration.
  const SimConfig sim = MakeSim(args.seed);
  const ClusterOptions opt = MakeOptions(args.seed, "", spec->buffer_pages);
  // Recoveries run with the library's default options, as §6.4 does; they
  // are recorded so that a change to those defaults shows.
  const RecoveryOptions ro;
  std::printf("harborbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::ostringstream d;
  d << "{\"workload\":" << Quote(spec->name)
    << ",\"config\":{\"sim\":{\"disk_force_latency_ns\":" << sim.disk_force_latency_ns
    << ",\"disk_random_latency_ns\":" << sim.disk_random_latency_ns
    << ",\"disk_bandwidth_bytes_per_sec\":" << sim.disk_bandwidth_bytes_per_sec
    << ",\"net_latency_ns\":" << sim.net_latency_ns
    << ",\"net_bandwidth_bytes_per_sec\":" << sim.net_bandwidth_bytes_per_sec
    << ",\"ns_per_cpu_cycle\":" << sim.ns_per_cpu_cycle
    << ",\"enable_latency\":" << (sim.enable_latency ? "true" : "false")
    << ",\"seed\":" << sim.seed << "}"
    << ",\"cluster\":{\"num_workers\":" << opt.num_workers
    << ",\"protocol\":\"optimized-3PC\",\"group_commit\":" << (opt.group_commit ? "true" : "false")
    << ",\"checkpoint_period_ms\":" << opt.checkpoint_period_ms
    << ",\"epoch_tick_ms\":" << opt.epoch_tick_ms
    << ",\"buffer_pages\":" << opt.buffer_pages
    << ",\"lock_timeout_ms\":" << opt.lock_timeout.count()
    << ",\"continue_on_worker_failure\":" << (opt.continue_on_worker_failure ? "true" : "false")
    << ",\"worker_server_threads\":" << opt.worker_server_threads
    << ",\"snapshot_max_lag_epochs\":" << opt.snapshot_max_lag_epochs << "}"
    << ",\"recovery_options\":{\"parallel\":" << (ro.parallel ? "true" : "false")
    << ",\"max_parallel_streams\":" << ro.max_parallel_streams
    << ",\"phase2_lag_threshold\":" << ro.phase2_lag_threshold
    << ",\"max_phase2_rounds\":" << ro.max_phase2_rounds
    << ",\"max_attempts\":" << ro.max_attempts
    << ",\"stream_chunk_tuples\":" << ro.stream_chunk_tuples
    << ",\"watermark_interval_chunks\":" << ro.watermark_interval_chunks << "}"
    << ",\"loaders\":" << spec->loaders << ",\"analysts\":" << spec->analysts
    << ",\"preload_rows_per_fact_table\":" << spec->preload_rows
    << ",\"site_data_mb\":" << Json(site_bytes / 1048576.0)
    << ",\"buffer_pool_mb\":" << Json(spec->buffer_pages * kPageSize / 1048576.0)
    << ",\"cycle_delta_rows\":" << kCycleDeltaRows << ",\"round_delta_rows\":" << kRoundDeltaRows
    << ",\"recovery_deadline_s\":" << kRecoveryDeadlineS
    << ",\"nproc\":" << nproc << ",\"generator_threads\":" << generator_threads << "}"
    << ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.v.size(); ++i) d << (i ? "," : "") << Json(setup_s.v[i]);
  d << "],\"window_s\":" << Json(window_s) << ",\"commits_per_s\":[";
  for (size_t i = 0; i < commit_slices.v.size(); ++i) d << (i ? "," : "") << commit_slices.v[i];
  d << "],\"queries_per_s\":[";
  for (size_t i = 0; i < query_slices.v.size(); ++i) d << (i ? "," : "") << query_slices.v[i];
  d << "]"
    << ",\"tails\":{";
  const std::pair<const char*, const Tail*> tails[] = {
      {"commit", &commit_tail}, {"scan_row", &row_tail},
      {"scan_col", &col_tail}, {"recovery_commit", &overlap_tail}};
  for (size_t i = 0; i < 4; ++i) {
    const Tail& t = *tails[i].second;
    d << (i ? "," : "") << Quote(tails[i].first) << ":{\"percentile\":" << Quote(t.label)
      << ",\"samples\":" << t.n << ",\"chunks\":" << t.chunks << "}";
  }
  d << "}"
    << ",\"scan_source\":" << Quote(spec->analysts > 0 ? "window" : "rounds")
    << ",\"recovery_source\":" << Quote(spec->cycles == Cycles::kNone ? "rounds" : "window")
    << ",\"recoveries_ms\":[";
  for (size_t i = 0; i < recs.size(); ++i) {
    const RecoverySample& x = recs[i];
    d << (i ? "," : "") << "[" << Json(x.total_ms) << "," << Json(x.offline_ms) << ","
      << Json(x.phase1_ms) << "," << Json(x.phase2_ms) << "," << Json(x.phase3_ms) << "]";
  }
  d << "]"
    << ",\"failed_frac\":" << Json(failed_frac)
    << ",\"ops\":{\"commits\":[" << g_out.attempted[kCommit].load() << "," << g_out.failed[kCommit].load()
    << "],\"queries\":[" << g_out.attempted[kQuery].load() << "," << g_out.failed[kQuery].load()
    << "],\"recoveries\":[" << g_out.attempted[kRecovery].load() << "," << g_out.failed[kRecovery].load()
    << "]},\"halted\":" << (r->halted ? "true" : "false") << ",\"phases_s\":{";
  for (size_t i = 0; i < r->phases.size(); ++i) {
    d << (i ? "," : "") << Quote(r->phases[i].first) << ":" << Json(r->phases[i].second);
  }
  d << "}";
  if (args.trace) {
    d << ",\"self_ms\":{";
    const auto spans = g_spans.All();
    bool first = true;
    for (const auto& [name, e] : SelfTimes(spans)) {
      d << (first ? "" : ",") << Quote(name) << ":[" << Json(e.first) << "," << e.second << "]";
      first = false;
    }
    d << "}";
    if (!args.spans_file.empty()) WriteSpans(args.spans_file, spans);
  }
  d << ",\"gate_failures\":[";
  for (size_t i = 0; i < g_out.gate_failures.size(); ++i) {
    d << (i ? "," : "") << Quote(g_out.gate_failures[i]);
  }
  d << "]}";
  std::printf("detail %s\n", d.str().c_str());
  for (const auto& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = g_out.correct();
  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  if (correct) {
    for (size_t i = 0; i < metrics.size(); ++i) {
      o << (i ? "," : "") << Quote(metrics[i].name) << ":{\"value\":"
        << Json(metrics[i].value) << ",\"unit\":" << Quote(metrics[i].unit) << "}";
    }
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);

  if (r->halted) {
    // Threads stuck inside the library cannot be joined; remove the site
    // files and end the process without unwinding them.
    std::error_code ec;
    fs::remove_all(r->fx->dir, ec);
    std::_Exit(0);
  }
  return 0;
}
