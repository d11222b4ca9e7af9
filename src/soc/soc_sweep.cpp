#include "soc/soc_sweep.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace tpi {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// The cell's effective FlowConfig, for the ledger's config fingerprint.
FlowConfig cell_config(const SocSweepJob& job) {
  FlowConfig cfg;
  cfg.scale = job.options.scale;
  cfg.options = job.options.flow;
  cfg.stages = job.options.stages;
  cfg.soc.cores = job.options.cores;
  cfg.soc.tam_width = job.options.tam_width;
  cfg.soc.schedule = soc_schedule_name(job.options.schedule);
  return cfg;
}

}  // namespace

SocSweepRunner::SocSweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

SocSweepRunner::SocSweepRunner(const FlowConfig& config) {
  opts_.jobs = config.effective_bench_jobs();
  opts_.trace_dir = config.trace_dir;
  opts_.ledger = config.ledger;
}

int SocSweepRunner::effective_jobs() const {
  return opts_.jobs > 0 ? opts_.jobs : static_cast<int>(ThreadPool::default_concurrency());
}

std::vector<SocSweepJob> SocSweepRunner::grid(const std::vector<int>& cores,
                                              const std::vector<int>& tam_widths,
                                              const std::vector<double>& tp_percents,
                                              const FlowConfig& config) {
  std::vector<SocSweepJob> jobs;
  jobs.reserve(cores.size() * tam_widths.size() * tp_percents.size());
  for (const int n : cores) {
    for (const int w : tam_widths) {
      for (const double pct : tp_percents) {
        SocSweepJob job;
        char pct_str[32];
        std::snprintf(pct_str, sizeof pct_str, "%g", pct);
        job.label = "soc=" + std::to_string(n) + "/tam=" + std::to_string(w) +
                    "/tp=" + pct_str;
        job.options.cores = n;
        job.options.tam_width = w;
        job.options.schedule = soc_schedule_from_name(config.soc.schedule)
                                   .value_or(SocScheduleMethod::kDiagonal);
        job.options.scale = config.scale;
        job.options.flow = config.options;
        job.options.flow.tp_percent = pct;
        job.options.stages = config.stages;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

SocSweepReport SocSweepRunner::run(const CellLibrary& lib,
                                   std::vector<SocSweepJob> jobs) const {
  SocSweepReport report;
  report.jobs = effective_jobs();

  std::vector<std::string> labels;
  labels.reserve(jobs.size());
  for (const SocSweepJob& job : jobs) labels.push_back(job.label);
  std::vector<SocResult> results(jobs.size());
  // One cache across the grid: every cell re-instantiates the same scaled
  // paper profiles, so most cores check out warm entries.
  DesignCache cache(lib, std::size_t{256} << 20);

  const auto sweep_t0 = Clock::now();
  const std::vector<double> wall_ms = run_sweep_cells(
      opts_, report.jobs, labels,
      [&](std::size_t i) { results[i] = SocRunner(jobs[i].options).run(lib, &cache); },
      [&](std::size_t i) {
        return SweepLedgerLine{cell_config(jobs[i]), soc_result_to_json_value(results[i])};
      });
  report.wall_ms = ms_since(sweep_t0);

  report.cells.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.cpu_ms += wall_ms[i];
    report.metrics.merge(results[i].metrics);
    report.cells.push_back({std::move(jobs[i]), std::move(results[i]), wall_ms[i]});
  }
  return report;
}

std::string SocSweepReport::to_json() const {
  std::string out = "{\n  \"context\": {\n";
  out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "    \"num_cells\": " + std::to_string(cells.size()) + ",\n";
  out += "    \"wall_ms\": " + fmt_double(wall_ms) + ",\n";
  out += "    \"cpu_ms\": " + fmt_double(cpu_ms) + "\n";
  out += "  },\n";
  // Deterministic subset: bit-identical at any job count / SIMD backend.
  out += "  \"metrics\": " + metrics.to_json(MetricsSnapshot::kNoRuntime) + ",\n";
  out += "  \"benchmarks\": [\n";
  bool first = true;
  for (const SocSweepCellResult& cell : cells) {
    if (!first) out += ",\n";
    first = false;
    const SocResult& r = cell.result;
    out += "    {\"name\": \"" + cell.job.label + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + fmt_double(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"cores\": " + std::to_string(r.cores) + ", ";
    out += "\"tam_width\": " + std::to_string(r.tam_width) + ", ";
    out += "\"tp_percent\": " + fmt_double(cell.job.options.flow.tp_percent) + ", ";
    out += "\"schedule\": \"" + std::string(soc_schedule_name(r.schedule)) + "\", ";
    out += "\"chip_tat_cycles\": " + std::to_string(r.chip_tat_cycles) + ", ";
    out += "\"serial_tat_cycles\": " + std::to_string(r.serial_tat_cycles) + ", ";
    out += "\"tam_utilization_pct\": " + fmt_double(r.tam_utilization_pct) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool SocSweepReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn() << "SocSweepReport: cannot write " << path;
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) log_warn() << "SocSweepReport: short write to " << path;
  return ok;
}

}  // namespace tpi
