// The benchmark driver: runs one workload through the public API of the
// anow library, checks every result, and prints its measurements as one
// JSON object on the last line of standard output.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file>]
//
// A run is a closed loop from one process: each leg starts when the previous
// one ends.  One pass runs the workload's legs in a fixed order —
//
//   real4  --backend real, 4 processes   (wall-clock scaling)
//   real1  --backend real, 1 process     (pure DSM overhead)
//   sim    --backend sim,  4 processes   (virtual time + simulator cost;
//                                          adaptive with a seeded
//                                          leave/join schedule on
//                                          adapt-churn)
//
// — and passes repeat until --seconds have elapsed after a warm-up pass.
// Real-backend and sequential wall times, and the sim leg's CPU time, are
// the best over the passes, other timed figures the median.  With --trace 1
// every pass
// also runs the sim leg with virtual-time attribution on, the driver's own
// spans wrap its calls into each layer, and the layer probes (diff, page
// protection, ring round trip) run once at the end.  perfbench/README.md
// maps each metric to its layer and to the end-to-end figure it moves.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/nbf.hpp"
#include "core/adapt.hpp"
#include "dsm/diff.hpp"
#include "dsm/system.hpp"
#include "exec/heap.hpp"
#include "exec/spsc_queue.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "obs/trace.hpp"
#include "ompx/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace {

using namespace anow;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written out as a
// Chrome trace-event file when the run ends.  Legs run one at a time (the
// master fiber or thread hands control back before the next call), so one
// stack serves every thread that records.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  void set_enabled(bool on) {
    std::lock_guard<std::mutex> lk(mu_);
    on_ = on;
  }

  int begin(const char* name) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << std::fixed << std::setprecision(3) << s.start_ns / 1e3
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::mutex mu_;
  bool on_ = false;
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(const char* name) : id_(g_spans.begin(name)) {}
  ~Scope() { g_spans.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// adapt-churn's schedule: alternating leave/join of one middle host.
constexpr sim::HostId kChurnHost = 2;
constexpr int kChurnPairs = 3;
constexpr std::size_t kChurnMinAdaptations = 2 * kChurnPairs;
constexpr int kProcs = 4;

struct WorkloadDef {
  std::string name;
  dsm::EngineKind engine = dsm::EngineKind::kLrc;
  /// Sim legs are adaptive and follow the seeded leave/join schedule.
  bool churn = false;
  std::string problem;  // problem-size record
  std::function<std::unique_ptr<apps::Workload>()> make;
  /// Plain sequential reference checksum (no DSM), as apps_test computes it.
  std::function<double()> reference;
};

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::optional<WorkloadDef> make_def(const std::string& name,
                                    std::uint64_t seed) {
  WorkloadDef d;
  d.name = name;
  if (name == "jacobi-diff" || name == "adapt-churn") {
    const apps::Jacobi::Params p = apps::Jacobi::Params::preset(
        apps::Size::kBench);
    d.churn = name == "adapt-churn";
    d.problem = "jacobi n=" + std::to_string(p.n) +
                " iters=" + std::to_string(p.iters);
    d.make = [p] { return std::make_unique<apps::Jacobi>(p); };
    d.reference = [p] { return sum_of(apps::Jacobi::reference(p)); };
  } else if (name == "nbf-fetch") {
    apps::Nbf::Params p = apps::Nbf::Params::preset(apps::Size::kBench);
    p.seed = seed;
    d.engine = dsm::EngineKind::kHomeLrc;
    d.problem = "nbf atoms=" + std::to_string(p.atoms) +
                " partners=" + std::to_string(p.partners) +
                " iters=" + std::to_string(p.iters) + " seed=run seed";
    d.make = [p] { return std::make_unique<apps::Nbf>(p); };
    d.reference = [p] { return apps::Nbf::reference(p); };
  } else {
    return std::nullopt;
  }
  return d;
}

std::vector<core::AdaptEvent> churn_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  const double start_s = 0.20 + 0.10 * rng.next_double();
  const double spacing_s = 0.45 + 0.10 * rng.next_double();
  return harness::alternating_leave_join(sim::from_seconds(start_s),
                                         sim::from_seconds(spacing_s),
                                         kChurnHost, kChurnPairs);
}

/// Confines the calling thread, and the threads it creates, to the CPU it
/// is running on, for its lifetime.  The simulator is logically
/// single-threaded but runs each fiber on its own OS thread with a
/// semaphore handoff; unconfined, its wall time mostly measures the host
/// scheduler's cross-CPU wake-up latency, which swung 3x from run to run on
/// a shared 4-vCPU host.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The RunConfig harness::run_workload would be given for one leg.  The
/// race checker stays off and no trace file is written in every leg.
harness::RunConfig leg_config(const WorkloadDef& def, std::uint64_t seed,
                              dsm::BackendKind backend, int nprocs) {
  harness::RunConfig cfg;
  cfg.backend = backend;
  cfg.nprocs = nprocs;
  cfg.engine = def.engine;
  cfg.seed = seed;
  cfg.race_check = dsm::RaceCheckMode::kOff;
  cfg.trace_file.clear();
  cfg.adaptive = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// One leg, making harness::run_workload's public calls in its order
// ---------------------------------------------------------------------------

struct LegResult {
  double checksum = 0.0;
  double virtual_s = 0.0;  // sim legs
  double cluster_s = 0.0, system_s = 0.0, start_s = 0.0, setup_s = 0.0;
  double init_s = 0.0, checksum_s = 0.0;
  double run_s = 0.0;   // host seconds from Workload::init to checksum
  double host_s = 0.0;  // host seconds for the whole leg, teardown included
  double cpu_s = 0.0;   // process CPU seconds over the same span
  std::vector<double> iter_s;
  util::StatsRegistry::Snapshot stats;
  std::uint64_t sim_events = 0;
  std::vector<core::AdaptRecord> records;
  double avg_nodes = 0.0;
  std::optional<obs::Report> report;
  double user_s = 0.0, sys_s = 0.0;
  std::int64_t vcsw = 0, ivcsw = 0;
};

/// CPU seconds used so far by every thread of the process.  The guest
/// kernel leaves time stolen by the hypervisor out of it, and it does not
/// grow while another process holds the CPU.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

LegResult run_leg(const WorkloadDef& def, const harness::RunConfig& cfg,
                  const char* label) {
  Scope leg_span(label);
  LegResult r;
  const bool real = cfg.backend == dsm::BackendKind::kReal;
  std::optional<PinToOneCpu> pin;
  if (!real) pin.emplace();
  std::unique_ptr<apps::Workload> workload = def.make();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    std::unique_ptr<sim::Cluster> cluster;
    {
      Scope s("harness.cluster");
      cluster = std::make_unique<sim::Cluster>(
          cfg.cost, cfg.nprocs + cfg.spare_hosts, cfg.seed);
    }
    r.cluster_s = since(t0);
    if (cfg.time_attribution) {
      obs::TraceOptions topts;
      topts.record_events = false;
      cluster->enable_trace(topts);
    }
    dsm::DsmConfig dsm_cfg = workload->dsm_config();
    dsm_cfg.backend = cfg.backend;
    dsm_cfg.engine = cfg.engine;
    dsm_cfg.piggyback = cfg.piggyback;
    dsm_cfg.dir_shards = cfg.dir_shards;
    dsm_cfg.placement = cfg.placement;
    dsm_cfg.topology = cfg.topology;
    dsm_cfg.fanout = cfg.fanout;
    dsm_cfg.race_check = cfg.race_check;
    dsm_cfg.pid_strategy = cfg.pid_strategy;
    dsm_cfg.trace_file = cfg.trace_file;
    std::unique_ptr<dsm::DsmSystem> system;
    {
      const auto ts = Clock::now();
      Scope s("harness.system");
      system = std::make_unique<dsm::DsmSystem>(*cluster, dsm_cfg);
      r.system_s = since(ts);
    }
    ompx::Runtime rt(*system);
    workload->setup(rt);
    std::optional<core::AdaptiveRuntime> adapt;
    if (cfg.adaptive && !real) {
      core::AdaptiveRuntime::Options opts;
      opts.gc_before_adapt = cfg.gc_before_adapt;
      opts.charge_spawn_cost = cfg.charge_spawn_cost;
      adapt.emplace(*system, opts);
      for (const auto& ev : cfg.events) adapt->post(ev);
    }
    {
      const auto ts = Clock::now();
      Scope s("harness.start");
      system->start(cfg.nprocs);
      r.start_s = since(ts);
    }
    r.setup_s = since(t0);

    system->run([&](dsm::DsmProcess& master) {
      const auto t_init = Clock::now();
      {
        Scope s("apps.init");
        workload->init(master);
      }
      r.init_s = since(t_init);
      r.iter_s.reserve(static_cast<std::size_t>(workload->iterations()));
      for (std::int64_t it = 0; it < workload->iterations(); ++it) {
        const auto ti = Clock::now();
        Scope s("ompx.iterate");
        workload->iterate(master, it);
        r.iter_s.push_back(since(ti));
      }
      const auto tc = Clock::now();
      {
        Scope s("apps.checksum");
        r.checksum = workload->checksum(master);
      }
      r.checksum_s = since(tc);
      r.run_s = since(t_init);
      r.virtual_s = sim::to_seconds(master.now());
    });

    // Time-weighted team size, exactly as run_workload integrates it.
    double node_seconds = 0.0;
    sim::Time last_change = 0;
    int last_world = cfg.nprocs;
    if (adapt) {
      r.records = adapt->records();
      for (const auto& rec : r.records) {
        if (rec.handled_at > last_change) {
          node_seconds +=
              sim::to_seconds(rec.handled_at - last_change) * last_world;
          last_change = rec.handled_at;
        }
        last_world = rec.world_after;
      }
    }
    node_seconds += (r.virtual_s - sim::to_seconds(last_change)) * last_world;
    r.avg_nodes = r.virtual_s > 0.0 ? node_seconds / r.virtual_s
                                    : static_cast<double>(cfg.nprocs);
    r.stats = cluster->stats().snapshot();
    r.sim_events = cluster->sim().events_executed();
    if (cluster->trace() != nullptr) r.report = cluster->trace()->report();
  }
  r.host_s = since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  r.user_s = tv_s(ru1.ru_utime) - tv_s(ru0.ru_utime);
  r.sys_s = tv_s(ru1.ru_stime) - tv_s(ru0.ru_stime);
  r.vcsw = ru1.ru_nvcsw - ru0.ru_nvcsw;
  r.ivcsw = ru1.ru_nivcsw - ru0.ru_nivcsw;
  return r;
}

/// The protocol counters a backend- or tracing-only change must not move.
std::map<std::string, std::int64_t> protocol_counts(
    const util::StatsRegistry::Snapshot& s) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("dsm.", 0) == 0 || name.rfind("net.", 0) == 0 ||
        name.rfind("adapt.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only)
// ---------------------------------------------------------------------------

/// dsm/diff: make and apply, ns per 4 KiB page, on the pages of a Jacobi
/// grid between two consecutive sweeps, taken early, midway and late in the
/// benchmark's run — the words that change sit near the fixed boundary
/// columns of each row, and rows straddle pages.  Every round checks that
/// apply reproduces the new pages.
std::pair<double, double> probe_diff(bool& ok) {
  Scope s("probe.diff");
  const apps::Jacobi::Params p =
      apps::Jacobi::Params::preset(apps::Size::kBench);
  const std::size_t page = dsm::kPageSize;
  const std::size_t grid_pages =
      static_cast<std::size_t>(p.n * p.n) * sizeof(double) / page;
  std::vector<std::uint8_t> twins, news;
  for (const std::int64_t sweep :
       {std::int64_t{1}, p.iters / 2, p.iters - 1}) {
    const std::vector<double> a = apps::Jacobi::reference({p.n, sweep});
    const std::vector<double> b = apps::Jacobi::reference({p.n, sweep + 1});
    const auto* pa = reinterpret_cast<const std::uint8_t*>(a.data());
    const auto* pb = reinterpret_cast<const std::uint8_t*>(b.data());
    twins.insert(twins.end(), pa, pa + grid_pages * page);
    news.insert(news.end(), pb, pb + grid_pages * page);
  }
  const std::size_t npages = twins.size() / page;
  std::vector<dsm::DiffBytes> diffs(npages);
  std::vector<std::uint8_t> copy(twins.size());
  std::vector<double> make_ns, apply_ns;
  for (int round = 0; round < 15; ++round) {
    const auto tm = Clock::now();
    for (std::size_t i = 0; i < npages; ++i) {
      diffs[i] =
          dsm::make_diff(twins.data() + i * page, news.data() + i * page);
    }
    make_ns.push_back(since(tm) * 1e9 / static_cast<double>(npages));
    std::memcpy(copy.data(), twins.data(), copy.size());
    const auto ta = Clock::now();
    for (std::size_t i = 0; i < npages; ++i) {
      dsm::apply_diff(copy.data() + i * page, diffs[i]);
    }
    apply_ns.push_back(since(ta) * 1e9 / static_cast<double>(npages));
    ok = ok && copy == news;
  }
  return {median(make_ns), median(apply_ns)};
}

/// exec: microseconds per RealHeap::set_access (one mprotect), with
/// `threads` threads each flipping the pages of its own heap at once — the
/// address-space lock they share is what the 4-thread figure exposes.
double probe_protect(int threads) {
  Scope s(threads == 1 ? "probe.protect_1t" : "probe.protect_4t");
  constexpr std::int32_t kPages = 256;
  constexpr int kRounds = 8;
  std::vector<std::unique_ptr<exec::RealHeap>> heaps;
  for (int t = 0; t < threads; ++t) {
    heaps.push_back(std::make_unique<exec::RealHeap>(
        static_cast<std::size_t>(kPages) * exec::kPageBytes));
  }
  std::vector<double> per_call_us(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  auto body = [&](int t) {
    exec::RealHeap& h = *heaps[static_cast<std::size_t>(t)];
    ready.fetch_add(1);
    while (ready.load() < threads) {
    }
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (std::int32_t pg = 0; pg < kPages; ++pg) {
        h.set_access(pg, exec::PageAccess::kRead);
        h.set_access(pg, exec::PageAccess::kWrite);
      }
    }
    per_call_us[static_cast<std::size_t>(t)] =
        since(t0) * 1e6 / (2.0 * kRounds * kPages);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();
  return median(per_call_us);
}

/// exec: round trip of one message over a pair of SpscQueues between two
/// threads (the real backend's ring transport), microseconds.
double probe_ring() {
  Scope s("probe.ring_rtt");
  constexpr int kTrips = 20000;
  exec::SpscQueue<std::uint64_t> ping(1024), pong(1024);
  auto spin_pop = [](exec::SpscQueue<std::uint64_t>& q) {
    std::uint64_t v = 0;
    for (int spins = 0; !q.try_pop(v); ++spins) {
      if (spins % 1024 == 1023) std::this_thread::yield();
    }
    return v;
  };
  std::thread echo([&] {
    for (int i = 0; i < kTrips; ++i) {
      std::uint64_t v = spin_pop(ping);
      pong.try_push(std::move(v));
    }
  });
  const auto t0 = Clock::now();
  for (int i = 0; i < kTrips; ++i) {
    ping.try_push(static_cast<std::uint64_t>(i));
    spin_pop(pong);
  }
  const double us = since(t0) * 1e6 / kTrips;
  echo.join();
  return us;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fingerprint of the default sim::CostModel, so figures from different
/// calibrations are never compared silently.
std::string cost_model_fingerprint() {
  const sim::CostModel c{};
  std::ostringstream s;
  s << std::setprecision(17) << c.link_mb_per_s << ' ' << c.send_overhead
    << ' ' << c.recv_overhead << ' ' << c.wire_latency << ' '
    << c.header_bytes << ' ' << c.local_delivery << ' ' << c.fault_fixed
    << ' ' << c.page_service << ' ' << c.diff_service_fixed << ' '
    << c.diff_create_us_per_byte << ' ' << c.diff_apply_us_per_byte << ' '
    << c.lock_service << ' ' << c.barrier_service << ' ' << c.gc_per_page
    << ' ' << c.dir_service << ' ' << c.tree_combine << ' ' << c.spawn_min
    << ' ' << c.spawn_max << ' ' << c.migration_mb_per_s << ' '
    << c.disk_mb_per_s << ' ' << c.connection_setup << ' ' << c.cpu_speed;
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << fnv1a(s.str());
  return hex.str();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        a.trace = val == "1";
      } else if (key == "--spans") {
        a.spans = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n";
    return 2;
  }
  const Args& args = *parsed;
  const std::optional<WorkloadDef> maybe_def =
      make_def(args.workload, args.seed);
  if (!maybe_def) {
    std::cerr << "unknown workload '" << args.workload
              << "' (jacobi-diff|nbf-fetch|adapt-churn)\n";
    return 2;
  }
  const WorkloadDef& def = *maybe_def;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  // Records a failed check; returns `ok` so a leg can skip later checks.
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
      std::cerr << "perfbench: FAILED " << what << "\n";
    }
    return ok;
  };

  // --- sequential reference: the correctness oracle.  Every pass times it
  // again (the speedup baseline), next to the legs it is compared with.
  const double reference = def.reference();
  std::vector<double> serial_s;
  auto serial_leg = [&] {
    ++attempted;
    Scope s("apps.serial");
    const auto ts = Clock::now();
    const double ref = def.reference();
    serial_s.push_back(since(ts));
    check(ref == reference, "sequential reference is not deterministic");
  };

  // --- leg configurations
  const harness::RunConfig real4 =
      leg_config(def, args.seed, dsm::BackendKind::kReal, kProcs);
  const harness::RunConfig real1 =
      leg_config(def, args.seed, dsm::BackendKind::kReal, 1);
  harness::RunConfig simcfg =
      leg_config(def, args.seed, dsm::BackendKind::kSim, kProcs);
  if (def.churn) {
    simcfg.adaptive = true;
    simcfg.spare_hosts = 1;
    simcfg.events = churn_schedule(args.seed);
  }
  harness::RunConfig simtraced = simcfg;
  simtraced.time_attribution = true;

  // --- the passes.  Every leg must match the reference exactly, so real
  // and sim checksums are bit-identical; every sim leg must also repeat the
  // first one (`sim_first`, from the warm-up pass) in virtual time, event
  // count and every protocol counter.
  LegResult sim_first;
  struct Samples {
    std::vector<LegResult> real4, real1, sim, simtraced;
  } keep;
  std::vector<double> trace_ratio;  // traced / untraced sim host CPU time
  // Runs and checks one leg; a passing leg is kept in `out` (if given) and
  // returned, a failed one returns null.  A leg given `repeat_of` must
  // repeat that leg exactly.
  auto run_checked = [&](const harness::RunConfig& cfg, const char* label,
                         const LegResult* repeat_of,
                         std::vector<LegResult>* out) -> const LegResult* {
    ++attempted;
    try {
      LegResult r = run_leg(def, cfg, label);
      bool ok = check(r.checksum == reference,
                      std::string(label) + " checksum misses the reference");
      if (ok && repeat_of != nullptr) {
        ok = check(r.virtual_s == repeat_of->virtual_s &&
                       protocol_counts(r.stats) ==
                           protocol_counts(repeat_of->stats) &&
                       r.sim_events == repeat_of->sim_events,
                   std::string(label) + " does not repeat the first sim leg");
      }
      if (ok && cfg.time_attribution) {
        ok = check(r.report && r.report->conserved(),
                   std::string(label) + " attribution not conserved");
      }
      if (!ok || out == nullptr) return nullptr;
      out->push_back(std::move(r));
      return &out->back();
    } catch (const std::exception& e) {
      check(false, std::string(label) + " threw: " + e.what());
      return nullptr;
    }
  };
  auto pass = [&](bool record) {
    g_spans.set_enabled(record && args.trace);
    if (record) serial_leg();
    run_checked(real4, "leg.real4", nullptr, record ? &keep.real4 : nullptr);
    run_checked(real1, "leg.real1", nullptr, record ? &keep.real1 : nullptr);
    g_spans.set_enabled(false);
    if (!record) {
      std::vector<LegResult> first;
      run_checked(simcfg, "leg.sim", nullptr, &first);
      if (!first.empty()) sim_first = std::move(first.front());
      return;
    }
    const LegResult* plain =
        run_checked(simcfg, "leg.sim", &sim_first, &keep.sim);
    if (!args.trace) return;
    const double plain_s = plain != nullptr ? plain->cpu_s : 0.0;
    g_spans.set_enabled(true);
    const LegResult* traced = run_checked(simtraced, "leg.sim_traced",
                                          &sim_first, &keep.simtraced);
    g_spans.set_enabled(false);
    if (plain != nullptr && traced != nullptr) {
      trace_ratio.push_back(traced->cpu_s / plain_s);
    }
  };

  // Warm-up: the first real run in a process is the slowest.  Peak memory
  // is read after it, when the process has run each leg exactly once.
  pass(false);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // --- identity: this driver's sim leg == harness::run_workload
  std::map<int, double> nonadaptive_s;
  double adapt_cost_s = 0.0;
  ++attempted;
  try {
    harness::RunResult via_harness;
    {
      PinToOneCpu pin;
      via_harness = harness::run_workload(simcfg, def.make());
    }
    check(via_harness.checksum == sim_first.checksum &&
              via_harness.seconds == sim_first.virtual_s &&
              via_harness.avg_nodes == sim_first.avg_nodes &&
              via_harness.records.size() == sim_first.records.size() &&
              protocol_counts(via_harness.stats) ==
                  protocol_counts(sim_first.stats),
          "driver sim leg differs from harness::run_workload");
    if (def.churn) {
      check(sim_first.records.size() >= kChurnMinAdaptations,
            "adapt-churn handled fewer than " +
                std::to_string(kChurnMinAdaptations) + " adaptations");
      for (int k : {kProcs - 1, kProcs}) {
        std::vector<LegResult> base;
        run_checked(leg_config(def, args.seed, dsm::BackendKind::kSim, k),
                    "leg.sim_base", nullptr, &base);
        if (!base.empty()) nonadaptive_s[k] = base.front().virtual_s;
      }
      if (nonadaptive_s.size() == 2) {
        adapt_cost_s =
            harness::average_adaptation_cost(via_harness, nonadaptive_s);
      }
    }
  } catch (const std::exception& e) {
    check(false, std::string("identity leg threw: ") + e.what());
  }

  const auto loop_start = Clock::now();
  int passes = 0;
  while (passes < 3 || since(loop_start) < args.seconds) {
    pass(true);
    ++passes;
    if (passes >= 1000) break;
  }

  // --- layer probes
  bool probes_ok = true;
  std::pair<double, double> diff_ns{0.0, 0.0};
  double protect_1t = 0.0, protect_4t = 0.0, ring_rtt = 0.0;
  if (args.trace) {
    g_spans.set_enabled(true);
    ++attempted;
    diff_ns = probe_diff(probes_ok);
    check(probes_ok, "diff probe: apply_diff did not reproduce the page");
    std::vector<double> p1, p4, rr;
    for (int i = 0; i < 5; ++i) {
      p1.push_back(probe_protect(1));
      p4.push_back(probe_protect(kProcs));
      rr.push_back(probe_ring());
    }
    protect_1t = median(p1);
    protect_4t = median(p4);
    ring_rtt = median(rr);
    g_spans.set_enabled(false);
  }
  if (!args.spans.empty()) g_spans.write_chrome(args.spans);

  // --- metrics
  auto med = [](const std::vector<LegResult>& legs,
                const std::function<double(const LegResult&)>& f) {
    std::vector<double> v;
    for (const auto& l : legs) v.push_back(f(l));
    return median(v);
  };
  std::map<std::string, double> m;
  // Real-backend and sequential wall times are the best over the passes: a
  // leg whose threads the hypervisor preempted measures the host, not the
  // program.  On a shared 4-vCPU host the median jacobi-diff real4 leg
  // ranged 0.49-1.05 s across runs, the best 0.50-0.65 s.
  auto best = [](const std::vector<LegResult>& legs) {
    double b = legs.empty() ? 0.0 : legs.front().run_s;
    for (const auto& l : legs) b = std::min(b, l.run_s);
    return b;
  };
  const double serial =
      serial_s.empty() ? 0.0
                       : *std::min_element(serial_s.begin(), serial_s.end());
  m["real_wall_s"] = best(keep.real4);
  m["real_wall_1p_s"] = best(keep.real1);
  m["speedup"] = m["real_wall_s"] > 0.0 ? serial / m["real_wall_s"] : 0.0;
  // The simulator's host cost is the best CPU time over the passes, not
  // wall time: the sim leg runs confined to one CPU, so its wall time also
  // counted every other process the host scheduled on that CPU and every
  // steal by the hypervisor.  Every sim leg does the same work (checked
  // above), so the spread between passes is the host's.  On a shared
  // 4-vCPU host the median wall time of nbf-fetch's sim leg spread 0.38 of
  // its median over ten runs.  On an idle host the two agree.
  auto best_cpu = [](const std::vector<LegResult>& legs) {
    double b = legs.empty() ? 0.0 : legs.front().cpu_s;
    for (const auto& l : legs) b = std::min(b, l.cpu_s);
    return b;
  };
  m["sim_host_s"] = best_cpu(keep.sim);
  m["sim.wall_s"] = med(keep.sim, [](auto& l) { return l.host_s; });
  // set-up: the real 4-process leg, or the adaptive sim leg on adapt-churn
  const std::vector<LegResult>& setup_legs =
      def.churn ? keep.sim : keep.real4;
  m["setup_s"] = med(setup_legs, [](auto& l) { return l.setup_s; });
  m["peak_rss_mb"] = peak_rss_mb;

  m["sim_virtual_s"] = sim_first.virtual_s;
  m["adapt_cost_s"] = adapt_cost_s;
  m["harness.cluster_s"] = med(setup_legs, [](auto& l) { return l.cluster_s; });
  m["harness.system_s"] = med(setup_legs, [](auto& l) { return l.system_s; });
  m["harness.start_s"] = med(setup_legs, [](auto& l) { return l.start_s; });
  m["apps.serial_s"] = serial;
  m["apps.init_s"] = med(keep.real4, [](auto& l) { return l.init_s; });
  m["apps.checksum_s"] = med(keep.real4, [](auto& l) { return l.checksum_s; });
  std::vector<double> iters_ms;
  for (const auto& l : keep.real4) {
    for (double s : l.iter_s) iters_ms.push_back(s * 1e3);
  }
  m["ompx.iters"] = keep.real4.empty()
                        ? 0.0
                        : static_cast<double>(keep.real4.front().iter_s.size());
  m["ompx.iter_p50_ms"] = percentile(iters_ms, 0.50);
  m["ompx.iter_p90_ms"] = percentile(iters_ms, 0.90);
  for (const char* c :
       {"dsm.forks", "dsm.barriers", "dsm.faults.read", "dsm.faults.write",
        "dsm.page_fetches", "dsm.diff_fetches", "dsm.diffs_created",
        "dsm.intervals", "dsm.gc_runs", "dsm.consistency_traffic_bytes",
        "net.messages", "net.bytes", "dsm.ctrl.master_inbound"}) {
    m[c] = static_cast<double>(sim_first.stats.counter(c));
  }
  if (!keep.simtraced.empty() && keep.simtraced.front().report) {
    const obs::Report& rep = *keep.simtraced.front().report;
    for (int b = 0; b < obs::kNumBuckets; ++b) {
      const auto bucket = static_cast<obs::Bucket>(b);
      m[std::string("obs.time.") + obs::bucket_name(bucket)] =
          sim::to_seconds(rep.total_bucket(bucket));
    }
  }
  m["obs.trace_overhead_pct"] =
      trace_ratio.empty() ? 0.0 : (median(trace_ratio) - 1.0) * 100.0;
  m["diff.make_ns"] = diff_ns.first;
  m["diff.apply_ns"] = diff_ns.second;
  m["exec.user_s"] = med(keep.real4, [](auto& l) { return l.user_s; });
  m["exec.sys_s"] = med(keep.real4, [](auto& l) { return l.sys_s; });
  m["exec.vcsw"] =
      med(keep.real4, [](auto& l) { return static_cast<double>(l.vcsw); });
  m["exec.ivcsw"] =
      med(keep.real4, [](auto& l) { return static_cast<double>(l.ivcsw); });
  m["exec.cpu_util"] = med(keep.real4, [](auto& l) {
    return (l.user_s + l.sys_s) / (l.host_s * kProcs);
  });
  m["exec.protect_us_1t"] = protect_1t;
  m["exec.protect_us_4t"] = protect_4t;
  m["exec.ring_rtt_us"] = ring_rtt;
  m["sim.events"] = static_cast<double>(sim_first.sim_events);
  m["sim.ns_per_event"] =
      sim_first.sim_events > 0
          ? m["sim_host_s"] * 1e9 / static_cast<double>(sim_first.sim_events)
          : 0.0;
  {
    const auto& recs = sim_first.records;
    std::vector<double> wait, leave_hook, join_hook;
    std::int64_t hook_bytes = 0;
    for (const auto& rec : recs) {
      wait.push_back(sim::to_seconds(rec.handled_at - rec.raised_at));
      (rec.kind == core::AdaptKind::kLeave ? leave_hook : join_hook)
          .push_back(sim::to_seconds(rec.hook_duration));
      hook_bytes += rec.hook_bytes;
    }
    m["adapt.count"] = static_cast<double>(recs.size());
    m["adapt.wait_s"] = median(wait);
    m["adapt.leave_hook_s"] = median(leave_hook);
    m["adapt.join_hook_s"] = median(join_hook);
    m["adapt.hook_bytes"] = static_cast<double>(hook_bytes);
    m["adapt.leave_pages_reowned"] = static_cast<double>(
        sim_first.stats.counter("adapt.leave_pages_reowned"));
  }

  // --- report
  std::ostringstream out;
  out << "{\"workload\":" << json_str(def.name) << ",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"passes\":" << passes
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << json_str(failures[i]);
  }
  out << "],\"config\":{\"problem\":" << json_str(def.problem)
      << ",\"size_desc\":" << json_str(def.make()->size_desc())
      << ",\"engine\":" << json_str(dsm::engine_kind_name(def.engine))
      << ",\"nprocs\":" << kProcs
      << ",\"cost_model\":" << json_str(cost_model_fingerprint())
      << ",\"compiler\":" << json_str(
#if defined(__clang__)
             std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
             std::string("gcc ") + __VERSION__
#else
             std::string("unknown")
#endif
             )
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"spans\":" << g_spans.size() << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ",") << json_str(name) << ":" << json_num(value);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
