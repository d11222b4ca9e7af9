// perfbench_measure — measures one benchmark workload of the tpi-layout
// flow and prints the raw figures as one JSON document on stdout.
//
//   perfbench_measure --workload paper_sweep|server_latency|layout_timing
//                     --seed N --seconds S --trace 0|1
//                     --server PATH/tpi_flow_server --socket PATH
//
// Every layer is measured from outside, by timing calls into the public
// library API: FlowEngine's generating constructor and run_stage,
// SweepRunner::run, the AtpgResult that run_atpg leaves in each
// FlowResult, Podem::generate, FaultSimBank::grade_and_drop, and
// FlowClient::rpc against a forked tpi_flow_server. Spans are kept in
// memory and written with the result. run.py turns the raw document into
// the benchmark's metrics and checks the outputs; README.md documents the
// workloads and the layer -> metric map.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/podem.hpp"
#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "flow/flow_json.hpp"
#include "flow/sweep.hpp"
#include "library/library.hpp"
#include "server/client.hpp"
#include "sim/simd.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "verify/replay.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using tpi::JsonArray;
using tpi::JsonObject;
using tpi::JsonValue;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- workload definitions -------------------------------------------------

constexpr double kPaperSweepScale = 0.2;
constexpr double kLayoutScale = 1.0;
constexpr double kServerScale = 0.03;
constexpr double kCompanionScale = 0.05;  // layout_timing's ATPG quality companion
constexpr double kTpPercents[] = {0, 1, 2, 3, 4, 5};
constexpr int kGridJobs = 4;        // SweepRunner workers (the host's 4 cores)
constexpr int kServerWorkers = 4;   // daemon flow workers
constexpr int kServerAtpgJobs = 4;  // fault-sim workers inside one server job
constexpr int kMinSweepReps = 2;      // timed sweeps, after the warm-up sweep
constexpr int kMinServerCycles = 6;   // 6 x 18 = 108 jobs: >= 10 beyond p90
constexpr double kSetupBurstMs = 50;  // grid set-up: library builds per sample burst
constexpr std::size_t kProbeCap = 150;  // PODEM probe calls per outcome class
constexpr int kSimProbeBatches = 4;     // 512-pattern batches per sim probe

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  tpi::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.next_u64();
}

/// Inputs of one grid workload: the paper's 3 profiles x 0-5% TP. The
/// circuits are the profiles' own (fixed, like the paper's benchmark
/// circuits); the workload seed drives the flow's random choices —
/// placement, chain stitching and ATPG's random patterns and fill.
std::vector<tpi::SweepJob> grid_jobs(std::uint64_t seed, double scale, tpi::StageMask stages) {
  std::vector<tpi::CircuitProfile> profiles;
  for (const tpi::CircuitProfile& p : tpi::paper_profiles()) {
    profiles.push_back(tpi::scaled(p, scale));
    profiles.back().name = p.name;
  }
  tpi::FlowOptions opts;
  opts.seed = mix(seed, 100);
  opts.atpg.seed = mix(seed, 101);
  opts.atpg.jobs = 1;
  return tpi::SweepRunner::grid(profiles,
                                std::vector<double>(std::begin(kTpPercents),
                                                    std::end(kTpPercents)),
                                opts, stages);
}

/// The server cycle: the same 18 (profile, TP%) cells as small jobs, of
/// which every third (in grid order) targets transition faults. The
/// workload seed orders the cycle and sets FlowOptions::seed, the only
/// seed the submit protocol carries; the circuits are the profiles' own.
std::vector<std::string> server_cycle(std::uint64_t seed) {
  std::vector<std::string> params;
  for (const tpi::CircuitProfile& p : tpi::paper_profiles()) {
    for (const double tp : kTpPercents) {
      JsonValue o{JsonObject{}};
      o.set("profile", p.name);
      o.set("scale", kServerScale);
      o.set("tp_percent", tp);
      o.set("seed", std::to_string(mix(seed, 100)));
      o.set("atpg_jobs", kServerAtpgJobs);
      if (params.size() % 3 == 2) o.set("fault_model", "transition");
      params.push_back(o.serialise());
    }
  }
  tpi::Rng rng(mix(seed, 200));
  rng.shuffle(params);
  return params;
}

std::string cycle_label(const std::string& params) {
  const tpi::JsonParseResult p = tpi::json_parse(params);
  char tp[32];
  std::snprintf(tp, sizeof tp, "%g", p.value.find("tp_percent")->as_number());
  std::string label = p.value.find("profile")->as_string() + "/tp=" + tp;
  if (p.value.find("fault_model") != nullptr) label += "/transition";
  return label;
}

// ---- spans ----------------------------------------------------------------

/// In-memory span log: name, start, end, parent span and cell/job id.
/// Thread-safe; disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  int begin(const std::string& name, int parent, int id) {
    if (!enabled_) return -1;
    const double now = ms_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) {
    if (span < 0) return;
    const double now = ms_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].end_ms = now;
  }
  JsonValue to_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonArray out;
    for (const Span& s : spans_) {
      JsonValue o{JsonObject{}};
      o.set("name", s.name);
      o.set("start_ms", s.start_ms);
      o.set("end_ms", s.end_ms);
      o.set("parent", s.parent);
      o.set("id", s.id);
      out.push_back(std::move(o));
    }
    return JsonValue(std::move(out));
  }

 private:
  struct Span {
    std::string name;
    double start_ms, end_ms;
    int parent, id;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times fn() and records it as a span; returns the elapsed ms.
template <typename Fn>
double timed(SpanLog& log, const std::string& name, int parent, int id, Fn&& fn) {
  const int span = log.begin(name, parent, id);
  const auto t0 = Clock::now();
  fn();
  const double ms = ms_between(t0, Clock::now());
  log.end(span);
  return ms;
}

// ---- one cell through FlowEngine, with checks and probes -----------------

std::uint64_t counter(const tpi::MetricsSnapshot& m, const char* name) {
  const tpi::MetricValue* v = m.find(name);
  return v != nullptr ? v->count : 0;
}

/// PODEM on a seeded sample of the final fault list: every redundant and
/// aborted fault (up to kProbeCap each) plus kProbeCap detected faults,
/// timed per call and binned by the outcome the call returns.
JsonValue podem_probe(tpi::DesignDB& db, const tpi::FlowResult& r, const tpi::PodemOptions& po,
                      std::uint64_t seed, SpanLog& log, int id) {
  const tpi::CombModel& model = db.comb_model(tpi::SeqView::kCapture);
  tpi::Podem podem(model, db.testability(tpi::SeqView::kCapture), po);
  std::vector<std::size_t> by_status[3];
  for (std::size_t i = 0; i < r.atpg.faults.faults.size(); ++i) {
    switch (r.atpg.faults.faults[i].status) {
      case tpi::FaultStatus::kDetected: by_status[0].push_back(i); break;
      case tpi::FaultStatus::kRedundant: by_status[1].push_back(i); break;
      case tpi::FaultStatus::kAborted: by_status[2].push_back(i); break;
      default: break;
    }
  }
  tpi::Rng rng(seed);
  double ms[3] = {0, 0, 0};
  std::int64_t n[3] = {0, 0, 0};
  const int span = log.begin("probe.podem", -1, id);
  for (std::vector<std::size_t>& pool : by_status) {
    rng.shuffle(pool);
    if (pool.size() > kProbeCap) pool.resize(kProbeCap);
    for (const std::size_t i : pool) {
      const auto t0 = Clock::now();
      const tpi::PodemResult res = podem.generate(r.atpg.faults.faults[i]);
      const double call_ms = ms_between(t0, Clock::now());
      const int k = res.outcome == tpi::PodemOutcome::kTest        ? 0
                    : res.outcome == tpi::PodemOutcome::kRedundant ? 1
                                                                   : 2;
      ms[k] += call_ms;
      ++n[k];
    }
  }
  log.end(span);
  JsonValue o{JsonObject{}};
  o.set("test_ms", ms[0]);
  o.set("test_n", n[0]);
  o.set("redundant_ms", ms[1]);
  o.set("redundant_n", n[1]);
  o.set("aborted_ms", ms[2]);
  o.set("aborted_n", n[2]);
  return o;
}

/// FaultSimBank::grade_and_drop on seeded 512-pattern batches over a fresh
/// stuck-at fault list of the capture view.
JsonValue sim_probe(tpi::DesignDB& db, std::uint64_t seed, SpanLog& log, int id) {
  const tpi::CombModel& model = db.comb_model(tpi::SeqView::kCapture);
  tpi::FaultList faults = tpi::build_fault_list(model);
  std::vector<tpi::Fault*> live;
  for (tpi::Fault& f : faults.faults) {
    if (f.status == tpi::FaultStatus::kUndetected) live.push_back(&f);
  }
  constexpr int kLaneWords = 8;
  tpi::FaultSimBank bank(model, 1);
  bank.configure_lanes(kLaneWords);
  tpi::Rng rng(seed);
  std::vector<tpi::Word> words(model.input_nets().size() * kLaneWords);
  double ns = 0.0;
  std::int64_t graded = 0;
  const int span = log.begin("probe.sim", -1, id);
  for (int b = 0; b < kSimProbeBatches && !live.empty(); ++b) {
    for (tpi::Word& w : words) w = rng.next_u64();
    bank.load_batch(words);
    graded += static_cast<std::int64_t>(live.size());
    const auto t0 = Clock::now();
    bank.grade_and_drop(live);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  log.end(span);
  JsonValue o{JsonObject{}};
  o.set("grade_ns", ns);
  o.set("faults_graded", graded);
  return o;
}

/// One grid cell (or one server job config) run in-process: generating
/// constructor + run_stage per masked stage, each timed. The ATPG result
/// is then replayed; with `probes`, PODEM and the fault-sim kernel are
/// probed on the same capture view. Replay and probes are outside the
/// cell's time.
JsonValue run_cell(const tpi::CellLibrary& lib, const tpi::SweepJob& job, int id, SpanLog& log,
                   bool probes, std::uint64_t probe_seed) {
  JsonValue o{JsonObject{}};
  o.set("id", id);
  o.set("label", job.label);
  const int cell_span = log.begin("cell", -1, id);
  std::unique_ptr<tpi::FlowEngine> engine;
  double cell_ms = timed(log, "circuits.generate", cell_span, id, [&] {
    engine = std::make_unique<tpi::FlowEngine>(lib, job.profile, job.options);
  });
  o.set("generate_ms", cell_ms);
  engine->set_job_label(job.label);
  JsonValue stages{JsonObject{}};
  for (const tpi::Stage s : tpi::kAllStages) {
    if (!job.stages.has(s)) continue;
    const double ms = timed(log, std::string("flow.") + tpi::stage_name(s), cell_span, id,
                            [&] { engine->run_stage(s); });
    stages.set(tpi::stage_name(s), ms);
    cell_ms += ms;
  }
  log.end(cell_span);
  o.set("ms", cell_ms);
  o.set("stages", std::move(stages));

  const tpi::FlowResult& r = engine->result();
  o.set("flow_json", tpi::flow_result_to_json(r));
  o.set("designdb_rebuilds", static_cast<std::int64_t>(counter(r.metrics, "designdb.rebuilds")));
  o.set("designdb_view_hits",
        static_cast<std::int64_t>(counter(r.metrics, "designdb.view_hits")));
  const bool atpg_ran = r.timings.stage_ran(tpi::Stage::kReorderAtpg);
  if (atpg_ran) {
    const tpi::AtpgResult& a = r.atpg;
    JsonValue at{JsonObject{}};
    at.set("fault_model", tpi::fault_model_name(a.fault_model));
    at.set("random_ms", a.profile.random.wall_ms);
    at.set("podem_ms", a.profile.podem.wall_ms);
    at.set("compaction_ms", a.profile.compaction.wall_ms);
    at.set("podem_calls", a.podem_calls);
    at.set("podem_backtracks", a.podem_backtracks);
    at.set("tests", static_cast<std::int64_t>(a.faults.count(tpi::FaultStatus::kDetected)));
    at.set("redundant", static_cast<std::int64_t>(a.faults.count(tpi::FaultStatus::kRedundant)));
    at.set("aborted", static_cast<std::int64_t>(a.faults.count(tpi::FaultStatus::kAborted)));
    at.set("patterns", a.num_patterns());
    at.set("patterns_before_compaction", a.patterns_before_compaction);
    const tpi::AtpgPhaseProfile t = a.profile.total();
    at.set("faults_graded", static_cast<std::int64_t>(t.faults_graded));
    at.set("node_evals", static_cast<std::int64_t>(t.node_evals));
    at.set("cone_skips", static_cast<std::int64_t>(t.cone_skips));
    o.set("atpg", std::move(at));
  }
  if (atpg_ran && !r.atpg.patterns.empty()) {
    const int span = log.begin("check.replay", -1, id);
    const tpi::ReplayReport replay =
        tpi::replay_patterns(engine->design_db().comb_model(tpi::SeqView::kCapture), r.atpg);
    log.end(span);
    o.set("replay_claimed", replay.claimed);
    o.set("replay_confirmed", replay.confirmed);
  }
  if (probes && atpg_ran && r.atpg.fault_model == tpi::FaultModel::kStuckAt) {
    o.set("podem_probe",
          podem_probe(engine->design_db(), r, job.options.atpg.podem, probe_seed, log, id));
    o.set("sim_probe", sim_probe(engine->design_db(), probe_seed + 1, log, id));
  }
  return o;
}

/// Runs `jobs` through run_cell on `threads` workers pulling cells in
/// submission order (the SweepRunner schedule). Returns the cells in
/// submission order; *wall_ms gets the pass's wall clock.
JsonArray run_cells(const tpi::CellLibrary& lib, const std::vector<tpi::SweepJob>& jobs,
                    int threads, SpanLog& log, bool probes, std::uint64_t seed,
                    double* wall_ms) {
  std::vector<JsonValue> out(jobs.size());
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::string error;
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
          try {
            out[i] = run_cell(lib, jobs[i], static_cast<int>(i), log, probes,
                              mix(seed, 1000 + i));
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(err_mu);
            error = jobs[i].label + ": " + e.what();
          }
        }
      });
    }
  }
  *wall_ms = ms_between(t0, Clock::now());
  if (!error.empty()) throw std::runtime_error(error);
  return JsonArray(out.begin(), out.end());
}

// ---- grid workloads (paper_sweep, layout_timing) ---------------------------

JsonValue sweep_rep(const tpi::CellLibrary& lib, const std::vector<tpi::SweepJob>& jobs) {
  tpi::SweepOptions so;
  so.jobs = kGridJobs;
  so.progress = false;
  const auto t0 = Clock::now();
  const tpi::SweepReport report = tpi::SweepRunner(so).run(lib, jobs);
  const double wall = ms_between(t0, Clock::now());
  JsonArray cells;
  for (const tpi::SweepCellResult& c : report.cells) {
    JsonValue o{JsonObject{}};
    o.set("label", c.job.label);
    o.set("ms", c.wall_ms);
    o.set("flow_json", tpi::flow_result_to_json(c.result));
    cells.push_back(std::move(o));
  }
  JsonValue rep{JsonObject{}};
  rep.set("wall_ms", wall);
  rep.set("cells", JsonValue(std::move(cells)));
  return rep;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string socket;
};

std::unique_ptr<tpi::CellLibrary> build_library(double* ms) {
  const auto t0 = Clock::now();
  std::unique_ptr<tpi::CellLibrary> lib = tpi::make_phl130_library();
  *ms = ms_between(t0, Clock::now());
  return lib;
}

void run_grid(const Args& a, JsonValue& out) {
  const bool paper = a.workload == "paper_sweep";
  const tpi::StageMask stages = paper ? tpi::StageMask::all()
                                      : tpi::StageMask::all().without(tpi::Stage::kReorderAtpg);
  const std::vector<tpi::SweepJob> jobs =
      grid_jobs(a.seed, paper ? kPaperSweepScale : kLayoutScale, stages);

  // Set-up is the cell library build. It is timed in short bursts on
  // kGridJobs threads at once, before the warm-up sweep and after every
  // sweep: this host's speed differs between cores and drifts over
  // seconds, and so the median sees the cores and states the sweeps see.
  JsonArray setup;
  const std::unique_ptr<tpi::CellLibrary> lib = tpi::make_phl130_library();
  const auto setup_burst = [&] {
    std::vector<std::vector<double>> samples(kGridJobs);
    {
      std::vector<std::jthread> threads;
      for (std::vector<double>& mine : samples) {
        threads.emplace_back([&mine] {
          const auto s0 = Clock::now();
          do {
            double ms = 0;
            build_library(&ms);
            mine.push_back(ms / 1000.0);
          } while (ms_between(s0, Clock::now()) < kSetupBurstMs);
        });
      }
    }
    for (const std::vector<double>& mine : samples) {
      setup.insert(setup.end(), mine.begin(), mine.end());
    }
  };
  setup_burst();

  // The first sweep is a warm-up: its outputs are checked, its times are
  // not used. Then whole sweeps until --seconds have passed (at least
  // kMinSweepReps; traced: one).
  JsonArray reps;
  JsonValue warmup = sweep_rep(*lib, jobs);
  warmup.set("warmup", true);
  reps.push_back(std::move(warmup));
  setup_burst();
  const auto t0 = Clock::now();
  const int min_reps = a.trace ? 1 : kMinSweepReps;
  for (int timed_reps = 0;
       timed_reps < min_reps ||
       (!a.trace && ms_between(t0, Clock::now()) < a.seconds * 1000.0);
       ++timed_reps) {
    reps.push_back(sweep_rep(*lib, jobs));
    setup_burst();
  }
  out.set("setup_s", JsonValue(std::move(setup)));
  out.set("reps", JsonValue(std::move(reps)));
  out.set("peak_rss_kb", tpi::peak_rss_kb());

  // Check pass (and, traced, the per-layer pass): the same cells through
  // FlowEngine::run_stage with the engines kept, so every ATPG detection
  // can be replayed. layout_timing runs no ATPG, so its untraced check
  // pass is a quality companion instead: the same grid at
  // kCompanionScale with all six stages, replayed, which also gives the
  // workload its test-quality figures (fe/saf/tat).
  const bool companion = !paper && !a.trace;
  const std::vector<tpi::SweepJob> check_jobs =
      companion ? grid_jobs(a.seed, kCompanionScale, tpi::StageMask::all()) : jobs;
  SpanLog log(a.trace, Clock::now());
  double wall_ms = 0;
  JsonArray cells =
      run_cells(*lib, check_jobs, kGridJobs, log, /*probes=*/a.trace, a.seed, &wall_ms);
  JsonValue check{JsonObject{}};
  check.set("wall_ms", wall_ms);
  check.set("threads", kGridJobs);
  check.set("companion", companion);
  check.set("cells", JsonValue(std::move(cells)));
  out.set("check", std::move(check));
  if (a.trace) out.set("spans", log.to_json());
}

// ---- server_latency ---------------------------------------------------------

/// A forked tpi_flow_server; the destructor kills and reaps it if it was
/// not shut down cleanly.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socket) : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string workers = std::to_string(kServerWorkers);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive perfbench_measure
      ::execl(binary.c_str(), "tpi_flow_server", "--socket", socket.c_str(), "--workers",
              workers.c_str(), static_cast<char*>(nullptr));
      std::perror("exec tpi_flow_server");
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Connect `client`, retrying until the daemon listens (30 s limit).
  void connect(tpi::FlowClient& client) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    std::string err;
    while (!client.connect(socket_, &err)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("tpi_flow_server exited before listening");
      }
      if (Clock::now() > deadline) throw std::runtime_error("server not ready: " + err);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Peak resident set of the daemon (VmHWM), in kB.
  double peak_rss_kb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
    }
    return 0.0;
  }

  /// Shutdown RPC, then wait for a clean exit (SIGKILL after 30 s).
  void shutdown(tpi::FlowClient& client) {
    std::string resp;
    client.rpc("shutdown", "", &resp);
    client.close();
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

const JsonValue* rpc_result(tpi::FlowClient& client, std::string_view method,
                            const std::string& params, tpi::JsonParseResult& parsed,
                            std::string* error) {
  std::string resp;
  if (!client.rpc(method, params, &resp, error)) return nullptr;
  parsed = tpi::json_parse(resp);
  if (!parsed.ok) {
    *error = "unparseable response: " + parsed.error;
    return nullptr;
  }
  if (const JsonValue* e = parsed.value.find("error")) {
    *error = e->is_string() ? e->as_string() : e->serialise();
    return nullptr;
  }
  const JsonValue* r = parsed.value.find("result");
  if (r == nullptr) *error = "response without result";
  return r;
}

/// One closed-loop job: submit, then result with "wait": true.
JsonValue server_job(tpi::FlowClient& client, const std::string& params, int id, SpanLog& log) {
  JsonValue o{JsonObject{}};
  o.set("id", id);
  o.set("label", cycle_label(params));
  std::string error;
  tpi::JsonParseResult parsed;
  const int job_span = log.begin("server.job", -1, id);
  const auto t0 = Clock::now();
  const int submit_span = log.begin("server.submit_rpc", job_span, id);
  const JsonValue* sub = rpc_result(client, "submit", params, parsed, &error);
  log.end(submit_span);
  const auto t1 = Clock::now();
  o.set("submit_ms", ms_between(t0, t1));
  if (sub == nullptr || sub->find("job") == nullptr) {
    log.end(job_span);
    o.set("state", "rpc_error");
    o.set("error", error.empty() ? "submit without job id" : error);
    return o;
  }
  JsonValue req{JsonObject{}};
  req.set("job", sub->find("job")->as_int());
  req.set("wait", true);
  const int result_span = log.begin("server.result_rpc", job_span, id);
  const JsonValue* res = rpc_result(client, "result", req.serialise(), parsed, &error);
  log.end(result_span);
  log.end(job_span);
  o.set("latency_ms", ms_between(t0, Clock::now()));
  if (res == nullptr) {
    o.set("state", "rpc_error");
    o.set("error", error);
    return o;
  }
  const JsonValue* state = res->find("state");
  o.set("state", state != nullptr && state->is_string() ? state->as_string() : "?");
  const JsonValue* wait = res->find("queue_wait_ns");
  o.set("queue_wait_ms", wait != nullptr ? wait->as_number() / 1e6 : 0.0);
  if (const JsonValue* flow = res->find("flow")) o.set("flow_json", flow->serialise());
  if (const JsonValue* e = res->find("error")) o.set("error", e->serialise());
  return o;
}

/// One server set-up: library build, daemon spawn until its socket
/// accepts `client`, and a warm-up pass in which the client runs each
/// profile's 0% TP job, one at a time, to fill the DesignCache. Returns
/// the seconds taken.
double set_up_server(const std::string& binary, const std::string& socket,
                     const std::vector<std::string>& cycle,
                     std::unique_ptr<tpi::CellLibrary>& lib,
                     std::unique_ptr<ServerProcess>& server, tpi::FlowClient& client) {
  double lib_ms = 0;
  lib = build_library(&lib_ms);
  const auto t0 = Clock::now();
  server = std::make_unique<ServerProcess>(binary, socket);
  server->connect(client);
  SpanLog none(false, t0);
  for (const std::string& params : cycle) {
    if (tpi::json_parse(params).value.find("tp_percent")->as_number() != 0.0) continue;
    const JsonValue job = server_job(client, params, -1, none);
    if (job.find("state")->as_string() != "done") {
      throw std::runtime_error("server warm-up job failed: " + job.serialise());
    }
  }
  return (lib_ms + ms_between(t0, Clock::now())) / 1000.0;
}

void run_server(const Args& a, JsonValue& out) {
  const std::vector<std::string> cycle = server_cycle(a.seed);
  SpanLog nolog(false, Clock::now());

  // The measured daemon's own set-up is the first set-up sample. This
  // host's speed drifts over seconds, so after every cycle one more
  // sample is taken on a spare daemon that is shut down right away: the
  // median sees the states the cycles see.
  JsonArray setup;
  std::unique_ptr<tpi::CellLibrary> lib;
  std::unique_ptr<ServerProcess> server;
  tpi::FlowClient client;
  setup.push_back(set_up_server(a.server, a.socket, cycle, lib, server, client));
  const auto spare_setup = [&] {
    std::unique_ptr<ServerProcess> spare;
    tpi::FlowClient spare_client;
    setup.push_back(
        set_up_server(a.server, a.socket + ".spare", cycle, lib, spare, spare_client));
    spare->shutdown(spare_client);
  };
  out.set("server_workers", kServerWorkers);

  // Measured closed loop. The first cycle is a warm-up (outputs checked,
  // times not used); then whole cycles until --seconds have passed (at
  // least kMinServerCycles; traced: one untraced and one traced cycle).
  SpanLog log(a.trace, Clock::now());
  int id = 0;
  const auto run_cycle = [&](bool warmup, bool traced) {
    JsonArray jobs;
    const auto c0 = Clock::now();
    for (const std::string& params : cycle) {
      jobs.push_back(server_job(client, params, id++, traced ? log : nolog));
    }
    JsonValue rep{JsonObject{}};
    rep.set("wall_ms", ms_between(c0, Clock::now()));
    rep.set("warmup", warmup);
    rep.set("traced", traced);
    rep.set("jobs", JsonValue(std::move(jobs)));
    return rep;
  };
  JsonArray reps;
  reps.push_back(run_cycle(/*warmup=*/true, /*traced=*/false));
  spare_setup();
  const auto t0 = Clock::now();
  const int min_cycles = a.trace ? 2 : kMinServerCycles;
  for (int timed = 0;
       timed < min_cycles || (!a.trace && ms_between(t0, Clock::now()) < a.seconds * 1000.0);
       ++timed) {
    reps.push_back(run_cycle(false, a.trace && timed == 1));
    spare_setup();
  }
  out.set("setup_s", JsonValue(std::move(setup)));
  out.set("reps", JsonValue(std::move(reps)));

  tpi::JsonParseResult parsed;
  std::string error;
  if (const JsonValue* stats = rpc_result(client, "stats", "", parsed, &error)) {
    out.set("server_stats", *stats);
  }
  out.set("peak_rss_kb", server->peak_rss_kb());
  server->shutdown(client);
  server.reset();

  // Check pass: each cycle config run in-process as a single-shot
  // FlowEngine run (results must match the server's byte for byte), with
  // replay. Traced, it runs serially — one job at a time, as the closed
  // loop does — and carries the per-layer probes.
  std::vector<tpi::SweepJob> jobs;
  for (const std::string& params : cycle) {
    tpi::FlowConfig cfg;
    if (!tpi::FlowConfig::from_json(params, tpi::FlowConfig::from_env(), cfg, &error)) {
      throw std::runtime_error("bad cycle config: " + error);
    }
    tpi::SweepJob job;
    job.label = cycle_label(params);
    if (!cfg.resolve_profile(job.profile, &error)) throw std::runtime_error(error);
    job.options = cfg.options;
    job.stages = cfg.stages;
    jobs.push_back(std::move(job));
  }
  const int threads = a.trace ? 1 : kGridJobs;
  double wall_ms = 0;
  JsonArray cells = run_cells(*lib, jobs, threads, log, /*probes=*/a.trace, a.seed, &wall_ms);
  JsonValue check{JsonObject{}};
  check.set("wall_ms", wall_ms);
  check.set("threads", threads);
  check.set("companion", false);
  check.set("cells", JsonValue(std::move(cells)));
  out.set("check", std::move(check));
  if (a.trace) out.set("spans", log.to_json());
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::atoi(v) != 0;
    else if (key == "--server") a.server = v;
    else if (key == "--socket") a.socket = v;
    else return false;
  }
  if (argc % 2 != 1) return false;
  if (a.workload == "server_latency") return !a.server.empty() && !a.socket.empty();
  return a.workload == "paper_sweep" || a.workload == "layout_timing";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_measure --workload paper_sweep|server_latency|layout_timing "
                 "--seed N --seconds S --trace 0|1 [--server BIN --socket PATH]\n");
    return 2;
  }
  JsonValue out{JsonObject{}};
  JsonValue ctx{JsonObject{}};
  ctx.set("simd_backend", tpi::simd_backend_name(tpi::simd_backend()));
  ctx.set("build_type", PERFBENCH_BUILD_TYPE);
  ctx.set("compiler", compiler_id());
  ctx.set("hardware_threads", static_cast<int>(std::thread::hardware_concurrency()));
  out.set("context", std::move(ctx));
  out.set("workload", args.workload);
  try {
    if (args.workload == "server_latency") {
      run_server(args, out);
    } else {
      run_grid(args, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 1;
  }
  const std::string text = out.serialise();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
