// End-to-end benchmark binary: one process serves one workload.
//
// It generates the data and a fixed query pool from --seed, builds Beas
// with production defaults (only the constraints set, plus the block-file
// backend for the disk workload), starts a default QueryService and a
// loopback NetServer, and computes a solo in-process reference answer for
// every pool query. It then drives the server over TCP from one in-process
// NetClient session on the main thread:
//
//   warm-up  closed loop, answers checked, nothing measured;
//   closed   closed loop: completions and CPU;
//   open     a request every 1/--rate seconds; every request records
//            when it was due, when the session was free to send it, when
//            it was sent, and when its first and done pages arrived, so a
//            stall is charged to every request it delays;
//   traced   (--traced N) the first N pool queries, one at a time,
//            through each layer's public call in turn (Parse, PlanOnly
//            with a timings-on QueryTrace, PlanExecutor::Execute,
//            QueryService::Answer, then the wire), followed by one timed
//            Insert/Remove pair directly and one through the service,
//            with nothing in flight.
//
// With --write_interval_s set, a writer thread calls QueryService::Insert
// and Remove on rows the pool never reads, at fixed offsets of every
// measured phase. Every served answer is compared with its reference (row
// hash, eta, accessed, exact) and checked against the budget
// floor(alpha * |D|). The raw samples go to stdout as one JSON line;
// bench/e2e/run.py turns them into metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "beas/beas.h"
#include "beas/query_context.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/client.h"
#include "net/server.h"
#include "ra/fingerprint.h"
#include "service/query_service.h"
#include "workload/query_gen.h"
#include "workload/tfacc.h"
#include "workload/tpch.h"

using namespace beas;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double CpuSeconds() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0, resident = 0;
  int got = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Thread placement. The program runs on one CPU: main pins itself to the
// first CPU this process may use before it starts anything, and every
// thread the program starts (service workers, the server's acceptor and
// session handler) inherits that. disk_rw's writer runs on the second CPU,
// as a writer on another connection would. On a 4-vCPU host, four
// sessions, each with its handler and whichever worker took its query (a
// dozen threads, placed per session or left to the scheduler), spread
// tfacc_point's closed-loop throughput by 0.16-0.23 (IQR / median) and its
// open-loop p99 by 0.39 over runs of one seed; one session on one CPU
// spread them by 0.02 and 0.13 over ten seeds.

/// Pins the calling thread to the slot-th CPU this process may use, round
/// robin. A failure leaves the thread where it was.
void PinSelf(size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Configuration: every knob comes from run.py as "--name value".

struct Config {
  std::string dataset;       // tpch | tfacc
  double scale = 0;          // TPC-H scale factor, or TFACC accident count
  std::string pool_kind;     // mix | point | scan
  size_t pool = 0;           // pool size
  double alpha = 0;
  uint64_t seed = 0;
  std::string backend;       // memory | disk
  uint64_t cache_bytes = 0;  // block-cache budget of the disk backend
  double warmup_s = 0, closed_s = 0, open_s = 0;
  double rate = 0;           // open-loop arrivals per second
  double write_interval_s = 0;
  size_t traced = 0;         // queries in the traced pass (0 = none)
  std::string tmpdir;
};

/// Set-ups per run: at least kMinSetups and at least kMinSetupSeconds of
/// them, at most kMaxSetups. setup_s is their median, so a fast set-up is
/// repeated more often.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMaxSetups = 25;

/// Latitude band of a scan_stream query, in degrees (latitudes are uniform
/// on [50, 58.6]).
constexpr double kScanWidthDeg = 4.0;

Config ParseConfig(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "beas_bench: expected --name value, got '%s'\n", argv[i]);
      std::exit(2);
    }
    kv[key.substr(2)] = argv[i + 1];
  }
  auto str = [&](const char* k) {
    auto it = kv.find(k);
    if (it == kv.end()) {
      std::fprintf(stderr, "beas_bench: missing --%s\n", k);
      std::exit(2);
    }
    return it->second;
  };
  auto num = [&](const char* k) { return std::stod(str(k)); };
  Config c;
  c.dataset = str("dataset");
  c.scale = num("scale");
  c.pool_kind = str("pool_kind");
  c.pool = static_cast<size_t>(num("pool"));
  c.alpha = num("alpha");
  c.seed = static_cast<uint64_t>(num("seed"));
  c.backend = str("backend");
  c.cache_bytes = static_cast<uint64_t>(num("cache_bytes"));
  c.warmup_s = num("warmup_s");
  c.closed_s = num("closed_s");
  c.open_s = num("open_s");
  c.rate = num("rate");
  c.write_interval_s = num("write_interval_s");
  c.traced = static_cast<size_t>(num("traced"));
  c.tmpdir = str("tmpdir");
  if ((c.dataset != "tpch" && c.dataset != "tfacc") ||
      (c.pool_kind != "mix" && c.pool_kind != "point" && c.pool_kind != "scan") ||
      (c.pool_kind != "mix" && c.dataset != "tfacc") ||
      (c.backend != "memory" && c.backend != "disk") || c.pool == 0 ||
      c.rate <= 0 || c.closed_s <= 0) {
    std::fprintf(stderr, "beas_bench: inconsistent configuration\n");
    std::exit(2);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Set-up: data, Beas, service, server.

/// One served instance. Members are destroyed server-first, so no server
/// thread outlives the service or the Beas it calls into.
struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    server.reset();
    service.reset();
    beas.reset();
    if (!block_path.empty()) std::remove(block_path.c_str());
  }

  Dataset ds;
  std::string block_path;
  std::unique_ptr<Beas> beas;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<NetServer> server;
};

Result<std::unique_ptr<Instance>> Setup(const Config& c, int index) {
  auto inst = std::make_unique<Instance>();
  inst->ds = c.dataset == "tpch" ? MakeTpch(c.scale, c.seed)
                                 : MakeTfacc(static_cast<int64_t>(c.scale), c.seed);
  BeasOptions options;
  options.constraints = inst->ds.constraints;
  if (c.backend == "disk") {
    inst->block_path = c.tmpdir + "/index-" + std::to_string(getpid()) + "-" +
                       std::to_string(index) + ".blk";
    options.index.backend = IndexBackendKind::kBlockFile;
    options.index.path = inst->block_path;
    {
      // Write the block file, then reopen it cold under the fixed budget.
      BEAS_ASSIGN_OR_RETURN(std::unique_ptr<Beas> writer,
                            Beas::Build(&inst->ds.db, options));
    }
    options.index.open_existing = true;
    options.index.cache_bytes = c.cache_bytes;
  }
  BEAS_ASSIGN_OR_RETURN(inst->beas, Beas::Build(&inst->ds.db, options));
  inst->service = std::make_unique<QueryService>(inst->beas.get());
  inst->server = std::make_unique<NetServer>(inst->service.get());
  BEAS_RETURN_IF_ERROR(inst->server->Start());
  return inst;
}

// ---------------------------------------------------------------------------
// Query pool and references.

/// Zipf(s) ranks over [0, n) by inverse CDF with a binary search.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
  }
  size_t Sample(Rng* rng) const {
    double u = rng->UniformReal(0.0, cdf_.back());
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string Fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// The pool, in order. Deterministic in the seed; the program sees only
/// the SQL text.
std::vector<std::string> MakePool(const Config& c, const Dataset& ds) {
  std::vector<std::string> pool;
  if (c.pool_kind == "mix") {
    // The Section 8 mix (QueryGenConfig's defaults follow the paper). The
    // generator keeps its own seed, so every run gets the same query shapes,
    // with constants drawn from the data --seed generated, as TPC-H fixes
    // its templates and draws their parameters per run. Drawing the shapes
    // from --seed too changed which few heavy shapes (many products and
    // set differences, ~20 ms) a pool held: its mean cost moved by ~10%
    // from seed to seed, and the open-loop p99 with it.
    for (auto& q : GenerateQueries(ds, static_cast<int>(c.pool))) {
      pool.push_back(std::move(q.sql));
    }
    return pool;
  }
  Rng rng(c.seed * 0x9e3779b97f4a7c15ull + 1);
  const int64_t accidents = static_cast<int64_t>(c.scale);
  if (c.pool_kind == "point") {
    // Hot keys scattered over the id space by a seeded permutation.
    std::vector<int64_t> ids(static_cast<size_t>(accidents));
    for (int64_t i = 0; i < accidents; ++i) ids[static_cast<size_t>(i)] = i;
    rng.Shuffle(&ids);
    ZipfSampler zipf(ids.size(), 0.99);
    for (size_t i = 0; i < c.pool; ++i) {
      std::string id = std::to_string(ids[zipf.Sample(&rng)]);
      if (rng.Bernoulli(0.5)) {
        pool.push_back(
            "select a.severity, a.speed_limit, v.veh_type, v.driver_age from "
            "accidents as a, vehicles as v where a.acc_id = " + id +
            " and v.acc_id = a.acc_id");
      } else {
        pool.push_back("select cas_class, severity, age from casualties where acc_id = " +
                       id);
      }
    }
    return pool;
  }
  // scan: latitude bands of accidents.
  for (size_t i = 0; i < c.pool; ++i) {
    double lo = 50.0 + rng.UniformReal(0.0, 8.6 - kScanWidthDeg);
    pool.push_back("select acc_id, severity, speed_limit, lat from accidents where lat >= " +
                   Fixed4(lo) + " and lat <= " + Fixed4(lo + kScanWidthDeg));
  }
  return pool;
}

uint64_t MixRow(uint64_t h, const Tuple& row) {
  return (h ^ TupleHash(row)) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}
constexpr uint64_t kHashSeed = 0xcbf29ce484222325ull;

uint64_t HashRows(const Table& table) {
  uint64_t h = kHashSeed;
  for (const Tuple& row : table.rows()) h = MixRow(h, row);
  return h;
}

/// What a served answer must reproduce.
struct Reference {
  uint64_t hash = 0;
  uint64_t rows = 0;
  double eta = 0;
  uint64_t accessed = 0;
  bool exact = false;
};

struct PoolEntry {
  std::string sql;
  size_t ref = 0;  // index into the references
};

/// Error reports are capped so a broken build fails loudly, not verbosely.
void Report(const std::string& what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 20) std::fprintf(stderr, "beas_bench: %s\n", what.c_str());
}

bool Matches(const Reference& want, uint64_t hash, uint64_t rows, double eta,
             uint64_t accessed, bool exact) {
  return hash == want.hash && rows == want.rows && eta == want.eta &&
         accessed == want.accessed && exact == want.exact;
}

// ---------------------------------------------------------------------------
// Load generation.

/// Operation counts of one phase or pass.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;       // non-OK status
  uint64_t mismatched = 0;   // differs from its reference
  uint64_t over_budget = 0;  // accessed > floor(alpha * |D|)

  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    over_budget += o.over_budget;
  }
};

struct WireResult {
  bool ok = false;
  Clock::time_point first, done;
  uint64_t pages = 0;
};

/// One query over the wire: Query, then Fetch until the done page, hashing
/// rows as they arrive. \p fetch_us (optional) receives each Fetch round trip.
WireResult RunWire(NetClient* client, const PoolEntry& e, const Reference& want,
                   double alpha, uint64_t budget, Tally* tally,
                   std::vector<double>* fetch_us = nullptr) {
  WireResult r;
  ++tally->attempted;
  auto cursor = client->Query(e.sql, alpha);
  if (!cursor.ok()) {
    ++tally->failed;
    Report("query failed: " + cursor.status().ToString());
    return r;
  }
  uint64_t h = kHashSeed, rows = 0;
  for (;;) {
    Clock::time_point sent = Clock::now();
    auto page = client->Fetch(cursor->id);
    Clock::time_point now = Clock::now();
    if (!page.ok()) {
      ++tally->failed;
      Report("fetch failed: " + page.status().ToString());
      return r;
    }
    if (fetch_us != nullptr) fetch_us->push_back(MicrosBetween(sent, now));
    if (r.pages++ == 0) r.first = now;
    for (const Tuple& row : page->rows) h = MixRow(h, row);
    rows += page->rows.size();
    if (!page->done) continue;
    r.done = now;
    r.ok = true;
    if (!Matches(want, h, rows, page->eta, page->accessed, page->exact) ||
        page->total_rows != rows) {
      ++tally->mismatched;
      Report("wire answer differs from its reference: " + e.sql);
    }
    if (page->accessed > budget) ++tally->over_budget;
    return r;
  }
}

/// The read side of a workload: pool, references, budget.
struct Workload {
  std::vector<PoolEntry> pool;
  std::vector<Reference> refs;
  double alpha = 0;
  uint64_t budget = 0;
};

/// Scheduled Insert/Remove through the service while a phase runs: one
/// operation at every (k + 1/2) * interval, alternating an insert of a
/// fresh row and its removal. A row still inserted when the phase's
/// readers stop is removed then, so every phase ends at the original |D|
/// and the same number of writes lands in every run of a phase. It runs on
/// the second CPU, beside the readers' one.
class Writer {
 public:
  Writer(QueryService* service, std::string relation,
         std::function<Tuple(int)> make_row, double interval_s)
      : service_(service), relation_(std::move(relation)),
        make_row_(std::move(make_row)), interval_s_(interval_s) {}

  /// Runs until \p stop is set (the readers are done).
  void RunPhase(Clock::time_point start, double seconds, const std::atomic<bool>* stop) {
    PinSelf(1);
    for (int k = 0; (k + 0.5) * interval_s_ < seconds; ++k) {
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(
                                                    (k + 0.5) * interval_s_)));
      Step();
    }
    while (!stop->load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (inserted_) Step();
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Step() {
    Tuple row = make_row_(next_row_);
    ++attempted_;
    Status st = inserted_ ? service_->Remove(relation_, row) : service_->Insert(relation_, row);
    if (!st.ok()) {
      ++failed_;
      Report("write failed: " + st.ToString());
      return;
    }
    if (inserted_) ++next_row_;
    inserted_ = !inserted_;
  }

  QueryService* service_;
  std::string relation_;
  std::function<Tuple(int)> make_row_;
  double interval_s_;
  int next_row_ = 0;
  bool inserted_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Runs \p load on the calling thread while \p writer, if any, writes on
/// its schedule for a phase of \p seconds from \p start.
template <typename F>
void WithWriter(Writer* writer, Clock::time_point start, double seconds, F&& load) {
  std::atomic<bool> stop{false};
  std::thread write_thread;
  if (writer != nullptr) {
    write_thread = std::thread([&] { writer->RunPhase(start, seconds, &stop); });
  }
  load();
  stop.store(true);
  if (write_thread.joinable()) write_thread.join();
}

struct ClosedResult {
  Tally tally;
  uint64_t completed = 0;
  double cpu_s = 0;
};

/// Closed loop: the session sends its next query when the last one is
/// done, walking the pool, until \p seconds pass.
ClosedResult RunClosed(NetClient* client, const Workload& w, double seconds, Writer* writer) {
  ClosedResult out;
  double cpu0 = CpuSeconds();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  WithWriter(writer, start, seconds, [&] {
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      const PoolEntry& e = w.pool[i % w.pool.size()];
      RunWire(client, e, w.refs[e.ref], w.alpha, w.budget, &out.tally);
    }
  });
  out.cpu_s = CpuSeconds() - cpu0;
  out.completed = out.tally.attempted - out.tally.failed;
  return out;
}

/// One open-loop request, in microseconds since the phase start: when it
/// was due, when the session was free (max of due and the previous
/// request's done), when it was sent, and when its first and done pages
/// arrived. first/done are -1 for a failed request.
struct OpenSample {
  double due, ready, sent, first, done;
};

struct OpenResult {
  Tally tally;
  std::vector<OpenSample> samples;
};

/// Open loop at a fixed rate: request k is due at k / c.rate seconds and
/// goes out as soon as it is due and the previous one is done; a request
/// that finds the session busy waits, and that wait counts in its latency.
/// (Poisson arrivals queue behind one another at random, and that queueing
/// doubled how far the host's drift in speed moved the tail: see README.md.)
OpenResult RunOpen(NetClient* client, const Workload& w, const Config& c, Writer* writer) {
  OpenResult out;
  out.samples.resize(static_cast<size_t>(c.open_s * c.rate));
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  WithWriter(writer, start, c.open_s, [&] {
    double free_since = 0;
    for (size_t k = 0; k < out.samples.size(); ++k) {
      OpenSample& smp = out.samples[k];
      smp.due = static_cast<double>(k) * 1e6 / c.rate;
      smp.ready = std::max(smp.due, free_since);
      // Spin until the request is due rather than sleep: a sleeping sender
      // leaves the CPU idle, and the wake-up from idle (a timer interrupt,
      // then the virtual CPU resuming) was charged to every request:
      // tfacc_point's median read 0.053 ms sleeping, 0.041 ms spinning.
      // sched_yield lets a server thread with work left (a cursor's
      // clean-up after its done page) run first.
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(smp.due));
      while (Clock::now() < due) sched_yield();
      smp.sent = MicrosBetween(start, Clock::now());
      const PoolEntry& e = w.pool[k % w.pool.size()];
      WireResult r = RunWire(client, e, w.refs[e.ref], w.alpha, w.budget, &out.tally);
      smp.first = r.ok ? MicrosBetween(start, r.first) : -1;
      smp.done = r.ok ? MicrosBetween(start, r.done) : -1;
      free_since = MicrosBetween(start, Clock::now());
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Traced pass: each layer's public call, in order, per query.

struct TracedRow {
  double parse, plan, chase, chat, execute, fetch, dq_build, eval, answer, wire;
  double pages, rows, keys_charged, fetch_ops, filter_windows, accessed;
};

struct TracedResult {
  Tally tally;
  std::vector<TracedRow> rows;
  std::vector<double> fetch_rtt_us;
};

TracedResult RunTraced(Instance* inst, NetClient* client, const Workload& w, size_t n) {
  TracedResult out;
  Beas& beas = *inst->beas;
  PlanExecutor executor(&beas.store(), beas.eval_options());
  for (size_t i = 0; i < n; ++i) {
    const PoolEntry& e = w.pool[i % w.pool.size()];
    const Reference& want = w.refs[e.ref];
    out.tally.attempted += 2;  // in process and service; RunWire counts the wire
    TracedRow row{};
    auto t0 = Clock::now();
    auto q = beas.Parse(e.sql);
    auto t1 = Clock::now();
    QueryTrace trace(/*timings=*/true);
    Result<BeasPlan> plan = q.ok() ? beas.PlanOnly(*q, w.alpha, &trace)
                                   : Result<BeasPlan>(q.status());
    auto t2 = Clock::now();
    QueryContext ctx;
    ctx.eval = beas.eval_options();
    ctx.eval.trace = &trace;
    Result<BeasAnswer> local = plan.ok() ? executor.Execute(*plan, w.budget, &ctx)
                                         : Result<BeasAnswer>(plan.status());
    auto t3 = Clock::now();
    Result<ServiceAnswer> served = q.ok() ? inst->service->Answer(*q, w.alpha)
                                          : Result<ServiceAnswer>(q.status());
    auto t4 = Clock::now();
    WireResult wire = RunWire(client, e, want, w.alpha, w.budget, &out.tally, &out.fetch_rtt_us);
    if (!local.ok() || !served.ok()) {
      out.tally.failed += (local.ok() ? 0 : 1) + (served.ok() ? 0 : 1);
      Report("traced query failed: " + e.sql);
      continue;
    }
    for (const BeasAnswer* a : {&*local, &served->answer}) {
      if (!Matches(want, HashRows(a->table), a->table.size(), a->eta, a->accessed,
                   a->exact)) {
        ++out.tally.mismatched;
        Report("in-process answer differs from its reference: " + e.sql);
      }
      if (a->accessed > w.budget) ++out.tally.over_budget;
    }
    if (!wire.ok) continue;
    row.parse = MicrosBetween(t0, t1);
    row.plan = MicrosBetween(t1, t2);
    row.chase = static_cast<double>(trace.SpanMicros("plan.chase"));
    row.chat = static_cast<double>(trace.SpanMicros("plan.chat"));
    row.execute = MicrosBetween(t2, t3);
    row.fetch = static_cast<double>(trace.SpanMicros("fetch"));
    row.dq_build = static_cast<double>(trace.SpanMicros("dq_build"));
    row.eval = static_cast<double>(trace.SpanMicros("eval"));
    row.answer = MicrosBetween(t3, t4);
    row.wire = MicrosBetween(t4, wire.done);
    row.pages = static_cast<double>(wire.pages);
    row.rows = static_cast<double>(local->table.size());
    row.keys_charged = static_cast<double>(trace.Attr("keys_charged"));
    row.fetch_ops = static_cast<double>(trace.Attr("fetch_ops"));
    row.filter_windows = static_cast<double>(trace.Attr("filter_windows"));
    row.accessed = static_cast<double>(local->accessed);
    out.rows.push_back(row);
  }
  return out;
}

/// Count and exact sum of a registry histogram, to take the mean of the
/// samples recorded between two snapshots. (Its percentiles are bucket
/// bounds, too coarse to compare runs with.)
struct HistogramMark {
  uint64_t count = 0, sum = 0;
};

HistogramMark Mark(QueryService* service, const char* name) {
  const Histogram* h = service->metrics()->GetHistogram(name);
  return HistogramMark{h->count(), h->sum()};
}

double MeanBetween(const HistogramMark& before, const HistogramMark& after) {
  uint64_t n = after.count - before.count;
  return n == 0 ? 0 : static_cast<double>(after.sum - before.sum) / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Output: one JSON object on one line.

class JsonOut {
 public:
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    Key(key);
    s_ += buf;
  }
  void Array(const char* key, const std::vector<double>& vs) {
    Key(key);
    s_ += '[';
    char buf[64];
    for (size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", vs[i]);
      s_ += buf;
    }
    s_ += ']';
  }
  void TallyObj(const char* key, const Tally& t) {
    Key(key);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                  ",\"mismatched\":%" PRIu64 ",\"over_budget\":%" PRIu64 "}",
                  t.attempted, t.failed, t.mismatched, t.over_budget);
    s_ += buf;
  }
  std::string Finish() { return s_ + "}"; }

 private:
  void Key(const char* key) {
    s_ += s_.size() > 1 ? ",\"" : "\"";
    s_ += key;
    s_ += "\":";
  }
  std::string s_ = "{";
};

/// The row the writer and the maintenance timings insert and remove:
/// keys the pool never reads, so every reference holds at every epoch.
std::function<Tuple(int)> MaintenanceRows(const Config& c, const Dataset& ds,
                                          std::string* relation) {
  if (c.dataset == "tfacc") {
    *relation = "vehicles";
    int64_t first = static_cast<int64_t>(c.scale) + 1;
    return [first](int i) {
      return Tuple{Value(first + i), Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{30})};
    };
  }
  *relation = "supplier";
  const Table* suppliers = *ds.db.FindTable("supplier");
  Tuple base = suppliers->rows().front();
  int64_t first = static_cast<int64_t>(suppliers->size()) + 1;
  return [base, first](int i) {
    Tuple row = base;
    row[0] = Value(first + i);
    return row;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Config c = ParseConfig(argc, argv);
  PinSelf(0);  // before the first thread starts: every thread inherits it

  // --- Set-up, repeated (a fast one more often, so its median holds):
  // the first instance serves the run. ---
  std::vector<double> setup_s;
  auto t_setup = Clock::now();
  auto first = Setup(c, 0);
  setup_s.push_back(MicrosBetween(t_setup, Clock::now()) / 1e6);
  if (!first.ok()) {
    std::fprintf(stderr, "beas_bench: set-up failed: %s\n", first.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Instance> inst = std::move(*first);
  // The heap the set-up freed (generation temporaries, the disk block
  // file's writer) goes back to the system first: glibc kept a varying
  // share of it, and disk_rw's resident set came out at either ~304 or
  // ~366 MB from run to run; after the trim it is 101.8 MB in every run.
  malloc_trim(0);
  const double rss_mb = CurrentRssMb();
  double setup_total_s = setup_s[0];
  for (int k = 1; k < kMaxSetups && (k < kMinSetups || setup_total_s < kMinSetupSeconds);
       ++k) {
    auto t0 = Clock::now();
    auto extra = Setup(c, k);
    setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    setup_total_s += setup_s.back();
    if (!extra.ok()) {
      std::fprintf(stderr, "beas_bench: set-up failed: %s\n",
                   extra.status().ToString().c_str());
      return 2;
    }
  }
  Beas& beas = *inst->beas;

  // --- Pool and solo references (outside the set-up time). ---
  Workload w;
  w.alpha = c.alpha;
  w.budget = static_cast<uint64_t>(std::floor(c.alpha * static_cast<double>(beas.db_size())));
  constexpr size_t kFailsSolo = SIZE_MAX;  // not part of the workload
  std::unordered_map<std::string, size_t> ref_of;
  std::unordered_set<std::string> fingerprints;
  size_t dropped = 0;
  double eta_sum = 0;
  for (std::string& sql : MakePool(c, inst->ds)) {
    auto it = ref_of.find(sql);
    if (it == ref_of.end()) {
      auto q = beas.Parse(sql);
      auto a = q.ok() ? beas.Answer(*q, c.alpha) : Result<BeasAnswer>(q.status());
      size_t ref = kFailsSolo;
      if (a.ok()) {
        fingerprints.insert(FingerprintQuery(*q).canonical);
        w.refs.push_back(Reference{HashRows(a->table), a->table.size(), a->eta,
                                   a->accessed, a->exact});
        ref = w.refs.size() - 1;
      }
      it = ref_of.emplace(sql, ref).first;
    }
    if (it->second == kFailsSolo) {
      ++dropped;
      continue;
    }
    eta_sum += w.refs[it->second].eta;
    w.pool.push_back(PoolEntry{std::move(sql), it->second});
  }
  if (w.pool.empty()) {
    std::fprintf(stderr, "beas_bench: no pool query succeeds solo\n");
    return 2;
  }
  Tally refs_tally;
  for (const Reference& r : w.refs) refs_tally.over_budget += r.accessed > w.budget ? 1 : 0;

  // --- The session and the writer. ---
  Result<NetClient> client = NetClient::Connect("127.0.0.1", inst->server->port());
  if (!client.ok()) {
    std::fprintf(stderr, "beas_bench: connect failed: %s\n", client.status().ToString().c_str());
    return 2;
  }
  std::string write_relation;
  auto write_rows = MaintenanceRows(c, inst->ds, &write_relation);
  std::unique_ptr<Writer> writer;
  if (c.write_interval_s > 0) {
    writer = std::make_unique<Writer>(inst->service.get(), write_relation, write_rows,
                                      c.write_interval_s);
  }

  // --- Phases. ---
  ClosedResult warm = RunClosed(&*client, w, c.warmup_s, nullptr);
  ClosedResult closed = RunClosed(&*client, w, c.closed_s, writer.get());
  ServiceStats svc0 = inst->service->stats();
  HistogramMark queue0 = Mark(inst->service.get(), "beas_service_queue_wait_us");
  OpenResult open = RunOpen(&*client, w, c, writer.get());
  HistogramMark queue1 = Mark(inst->service.get(), "beas_service_queue_wait_us");
  ServiceStats svc1 = inst->service->stats();

  // --- Traced pass, then one Insert/Remove pair directly and one through
  // the service, with nothing in flight. ---
  TracedResult traced;
  std::vector<double> maintain_ms, service_write_ms;
  Tally maintain_tally;
  if (c.traced > 0) {
    traced = RunTraced(inst.get(), &*client, w, c.traced);
    Tuple row = write_rows(1000000);
    for (bool direct : {true, false}) {
      for (bool insert : {true, false}) {
        ++maintain_tally.attempted;
        auto t0 = Clock::now();
        Status st = direct ? (insert ? beas.Insert(write_relation, row)
                                     : beas.Remove(write_relation, row))
                           : (insert ? inst->service->Insert(write_relation, row)
                                     : inst->service->Remove(write_relation, row));
        double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
        if (!st.ok()) {
          ++maintain_tally.failed;
          Report("maintenance failed: " + st.ToString());
          continue;
        }
        (direct ? maintain_ms : service_write_ms).push_back(ms);
      }
    }
  }
  NetStats net = inst->server->stats();

  // --- Output. ---
  Tally all;
  all.Add(refs_tally);
  all.Add(warm.tally);
  all.Add(closed.tally);
  all.Add(open.tally);
  all.Add(traced.tally);
  all.Add(maintain_tally);
  if (writer != nullptr) {
    all.attempted += writer->attempted();
    all.failed += writer->failed();
  }
  JsonOut out;
  out.TallyObj("tally", all);
  out.Num("budget", static_cast<double>(w.budget));
  out.Num("pool", static_cast<double>(w.pool.size()));
  out.Num("pool_dropped", static_cast<double>(dropped));
  out.Num("fingerprint_repeat_frac",
          1.0 - static_cast<double>(fingerprints.size()) / static_cast<double>(w.pool.size()));
  out.Num("eta_mean", eta_sum / static_cast<double>(w.pool.size()));
  out.Array("setup_s", setup_s);
  out.Num("rss_mb", rss_mb);
  out.Num("closed_completed", static_cast<double>(closed.completed));
  out.Num("closed_cpu_s", closed.cpu_s);
  out.Num("closed_s", c.closed_s);
  std::vector<double> due, ready, sent, first_page, done;
  for (const OpenSample& s : open.samples) {
    due.push_back(s.due);
    ready.push_back(s.ready);
    sent.push_back(s.sent);
    first_page.push_back(s.first);
    done.push_back(s.done);
  }
  out.Array("open_due_us", due);
  out.Array("open_ready_us", ready);
  out.Array("open_sent_us", sent);
  out.Array("open_first_us", first_page);
  out.Array("open_done_us", done);
  out.Num("queue_wait_us_mean", MeanBetween(queue0, queue1));
  out.Num("block_cache_hits", static_cast<double>(svc1.cache_hits - svc0.cache_hits));
  out.Num("block_cache_misses", static_cast<double>(svc1.cache_misses - svc0.cache_misses));
  out.Num("cache_resident_mb", static_cast<double>(svc1.cache_resident_bytes) / (1024.0 * 1024.0));
  out.Num("peak_cursor_kb", static_cast<double>(net.cursor_resident_peak_bytes) / 1024.0);
  out.Num("peak_rss_mb", PeakRssMb());
  auto column = [&](double TracedRow::*field) {
    std::vector<double> v;
    for (const TracedRow& r : traced.rows) v.push_back(r.*field);
    return v;
  };
  out.Array("t_parse_us", column(&TracedRow::parse));
  out.Array("t_plan_us", column(&TracedRow::plan));
  out.Array("t_chase_us", column(&TracedRow::chase));
  out.Array("t_chat_us", column(&TracedRow::chat));
  out.Array("t_execute_us", column(&TracedRow::execute));
  out.Array("t_fetch_us", column(&TracedRow::fetch));
  out.Array("t_dq_build_us", column(&TracedRow::dq_build));
  out.Array("t_eval_us", column(&TracedRow::eval));
  out.Array("t_answer_us", column(&TracedRow::answer));
  out.Array("t_wire_us", column(&TracedRow::wire));
  out.Array("t_pages", column(&TracedRow::pages));
  out.Array("t_rows", column(&TracedRow::rows));
  out.Array("t_keys_charged", column(&TracedRow::keys_charged));
  out.Array("t_fetch_ops", column(&TracedRow::fetch_ops));
  out.Array("t_filter_windows", column(&TracedRow::filter_windows));
  out.Array("t_accessed", column(&TracedRow::accessed));
  out.Array("t_fetch_rtt_us", traced.fetch_rtt_us);
  out.Array("maintain_ms", maintain_ms);
  out.Array("service_write_ms", service_write_ms);
  std::printf("%s\n", out.Finish().c_str());
  std::fflush(stdout);

  client->Close();
  return 0;
}
