#include "flow/sweep.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "flow/flow_json.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are plain ASCII
    out += c;
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

std::string stages_json(const StageTimings& t) {
  std::string out = "{";
  bool first = true;
  for (const Stage s : kAllStages) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += stage_name(s);
    out += "\": ";
    out += fmt_double(t[s]);
  }
  return out + "}";
}

// Fault-sim kernel profile of the cell's ATPG run: per-phase wall clock
// plus the (job-count-independent) event counters.
std::string atpg_profile_json(const AtpgKernelProfile& p) {
  const AtpgPhaseProfile t = p.total();
  std::string out = "{";
  out += "\"jobs\": " + std::to_string(p.jobs) + ", ";
  out += "\"random_ms\": " + fmt_double(p.random.wall_ms) + ", ";
  out += "\"podem_ms\": " + fmt_double(p.podem.wall_ms) + ", ";
  out += "\"compaction_ms\": " + fmt_double(p.compaction.wall_ms) + ", ";
  out += "\"batches\": " + std::to_string(t.batches) + ", ";
  out += "\"faults_graded\": " + std::to_string(t.faults_graded) + ", ";
  out += "\"cone_skips\": " + std::to_string(t.cone_skips) + ", ";
  out += "\"node_evals\": " + std::to_string(t.node_evals) + ", ";
  out += "\"events\": " + std::to_string(t.events) + "}";
  return out;
}

}  // namespace

std::string sanitize_trace_label(const std::string& label) {
  auto safe = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '=' || c == '-';
  };
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    if (safe(c)) {
      out += c;
    } else {
      static const char kHex[] = "0123456789abcdef";
      const auto b = static_cast<unsigned char>(c);
      out += '_';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    }
  }
  return out;
}

std::string SweepReport::to_json() const {
  std::string out = "{\n  \"context\": {\n";
  out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "    \"num_cells\": " + std::to_string(cells.size()) + ",\n";
  out += "    \"wall_ms\": " + fmt_double(wall_ms) + ",\n";
  out += "    \"cpu_ms\": " + fmt_double(cpu_ms) + ",\n";
  out += "    \"speedup\": " + fmt_double(speedup()) + "\n";
  out += "  },\n";
  // Deterministic subset only: this line must be bit-identical at any
  // TPI_BENCH_JOBS / TPI_ATPG_JOBS (the sweep tests diff it verbatim).
  out += "  \"metrics\": " + metrics.to_json(MetricsSnapshot::kNoRuntime) + ",\n";
  out += "  \"benchmarks\": [\n";
  bool first = true;
  for (const SweepCellResult& cell : cells) {
    if (!first) out += ",\n";
    first = false;
    const FlowResult& r = cell.result;
    out += "    {\"name\": \"" + json_escape(cell.job.label) + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + fmt_double(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"tp_percent\": " + fmt_double(cell.job.options.tp_percent) + ", ";
    out += "\"num_test_points\": " + std::to_string(r.num_test_points) + ", ";
    out += "\"num_cells\": " + std::to_string(r.num_cells) + ", ";
    out += "\"saf_patterns\": " + std::to_string(r.saf_patterns) + ", ";
    out += "\"chip_area_um2\": " + fmt_double(r.chip_area_um2) + ", ";
    out += "\"wire_length_um\": " + fmt_double(r.wire_length_um) + ", ";
    out += "\"t_cp_ps\": " + fmt_double(r.sta.worst.valid ? r.sta.worst.t_cp_ps : 0.0) + ", ";
    // Conditional keys: stuck-at cells keep the seed's exact layout.
    if (r.atpg.fault_model == FaultModel::kTransition) {
      out += "\"fault_model\": \"transition\", ";
    }
    if (r.at_speed.ran) {
      out += "\"at_speed\": {";
      out += "\"capture_period_ps\": " + fmt_double(r.at_speed.capture_period_ps) + ", ";
      out += "\"at_speed_coverage_pct\": " + fmt_double(r.at_speed.at_speed_coverage_pct) + ", ";
      out += "\"slow_speed_coverage_pct\": " +
             fmt_double(r.at_speed.slow_speed_coverage_pct) + ", ";
      out += "\"coverage_delta_pct\": " + fmt_double(r.at_speed.coverage_delta_pct()) + ", ";
      out += "\"qualified_faults\": " + std::to_string(r.at_speed.qualified_faults) + "}, ";
    }
    out += "\"atpg_kernel\": " + atpg_profile_json(r.atpg.profile) + ", ";
    out += "\"stages\": " + stages_json(r.timings) + "}";
  }
  for (const Stage s : kAllStages) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"name\": \"stage_totals/";
    out += stage_name(s);
    out += "\", \"run_type\": \"aggregate\", \"aggregate_name\": \"total\", ";
    out += "\"real_time\": " + fmt_double(stage_total_ms[static_cast<std::size_t>(s)]) +
           ", \"time_unit\": \"ms\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool SweepReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn() << "SweepReport: cannot write " << path;
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) log_warn() << "SweepReport: short write to " << path;
  return ok;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

SweepRunner::SweepRunner(const FlowConfig& config) {
  opts_.jobs = config.effective_bench_jobs();
  opts_.trace_dir = config.trace_dir;
  opts_.ledger = config.ledger;
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowConfig& config) {
  return grid(circuits, tp_percents, config.options, config.stages);
}

int SweepRunner::effective_jobs() const {
  return opts_.jobs > 0 ? opts_.jobs : static_cast<int>(ThreadPool::default_concurrency());
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowOptions& base_options, StageMask stages) {
  std::vector<SweepJob> jobs;
  jobs.reserve(circuits.size() * tp_percents.size());
  for (const CircuitProfile& profile : circuits) {
    for (const double pct : tp_percents) {
      SweepJob job;
      char pct_str[32];
      std::snprintf(pct_str, sizeof pct_str, "%g", pct);
      job.label = profile.name + "/tp=" + pct_str;
      job.profile = profile;
      job.options = base_options;
      job.options.tp_percent = pct;
      job.stages = stages;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<double> run_sweep_cells(
    const SweepOptions& opts, int jobs, const std::vector<std::string>& labels,
    const std::function<void(std::size_t)>& run_cell,
    const std::function<SweepLedgerLine(std::size_t)>& ledger_line) {
  const std::string& trace_dir = opts.trace_dir;
  if (!trace_dir.empty()) ::mkdir(trace_dir.c_str(), 0777);  // EEXIST is fine
  std::unique_ptr<Ledger> ledger;
  if (!opts.ledger.empty()) ledger = std::make_unique<Ledger>(opts.ledger);

  std::vector<double> wall_ms(labels.size(), 0.0);
  ThreadPool pool(static_cast<unsigned>(jobs));
  std::vector<std::future<void>> done;
  done.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    done.push_back(pool.submit([&, i] {
      const std::string& label = labels[i];
      if (opts.progress) std::fprintf(stderr, "[sweep] %s...\n", label.c_str());
      // Per-cell flight recorder: the cell's spans, forked work included,
      // go to its own sink, so concurrent cells never share a trace file.
      std::unique_ptr<TraceSink> sink;
      if (!trace_dir.empty()) {
        sink = std::make_unique<TraceSink>(static_cast<std::uint64_t>(i + 1), label);
      }
      const auto t0 = Clock::now();
      {
        std::optional<ScopedTraceSink> scope;
        if (sink != nullptr) scope.emplace(*sink);
        run_cell(i);
      }
      wall_ms[i] = ms_since(t0);
      if (sink != nullptr) {
        sink->write_json(trace_dir + "/" + sanitize_trace_label(label) + ".trace.json");
      }
    }));
  }
  // Collect in cell order; future::get() rethrows a cell's exception.
  // Ledger lines are appended here too, so their order is deterministic.
  for (std::size_t i = 0; i < done.size(); ++i) {
    done[i].get();
    if (ledger == nullptr) continue;
    const SweepLedgerLine line = ledger_line(i);
    const JsonParseResult cfg_json = json_parse(line.config.to_json());
    ledger->append(labels[i], cfg_json.ok ? cfg_json.value : JsonValue(JsonObject{}),
                   line.result);
  }
  return wall_ms;
}

SweepReport SweepRunner::run(const CellLibrary& lib, std::vector<SweepJob> jobs) const {
  SweepReport report;
  report.jobs = effective_jobs();

  std::vector<std::string> labels;
  labels.reserve(jobs.size());
  for (const SweepJob& job : jobs) labels.push_back(job.label);
  std::vector<FlowResult> results(jobs.size());

  const auto sweep_t0 = Clock::now();
  const std::vector<double> wall_ms = run_sweep_cells(
      opts_, report.jobs, labels,
      [&](std::size_t i) {
        FlowEngine engine(lib, jobs[i].profile, jobs[i].options);
        engine.set_job_label(jobs[i].label);
        engine.set_observer(opts_.observer);
        results[i] = engine.run(jobs[i].stages);
      },
      [&](std::size_t i) {
        SweepLedgerLine line;
        line.config.profile = jobs[i].profile.name;
        line.config.options = jobs[i].options;
        line.config.stages = jobs[i].stages;
        line.result = flow_result_to_json_value(results[i]);
        return line;
      });
  report.wall_ms = ms_since(sweep_t0);

  report.cells.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.cpu_ms += wall_ms[i];
    for (const Stage s : kAllStages) {
      report.stage_total_ms[static_cast<std::size_t>(s)] += results[i].timings[s];
    }
    report.metrics.merge(results[i].metrics);
    report.cells.push_back({std::move(jobs[i]), std::move(results[i]), wall_ms[i]});
  }
  return report;
}

}  // namespace tpi
