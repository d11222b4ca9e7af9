// Sweep runner for SOC-scale grids: cores x TAM width x tp_percent, each
// cell one full chip (SocRunner). Cells run on the pool of the shared
// sweep scaffolding (run_sweep_cells) exactly like SweepRunner cells, and
// each chip forks its per-core flows onto that same pool. A shared
// DesignCache spans the grid: every cell re-instantiates the same scaled
// paper profiles, so later cells hit warm entries.
//
// Reporting mirrors SweepRunner: google-benchmark-style JSON with one
// entry per chip, per-cell flight-recorder traces under
// <trace_dir>/<sanitize_trace_label(label)>.trace.json, and one ledger
// line per chip appended in grid order.
#pragma once

#include <string>
#include <vector>

#include "flow/sweep.hpp"
#include "soc/soc.hpp"

namespace tpi {

struct SocSweepJob {
  std::string label;  ///< report key, e.g. "soc=8/tam=32/tp=1"
  SocOptions options;
};

struct SocSweepCellResult {
  SocSweepJob job;
  SocResult result;
  double wall_ms = 0.0;
};

struct SocSweepReport {
  std::vector<SocSweepCellResult> cells;  ///< in job submission order
  int jobs = 1;                           ///< pool worker threads
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// Per-cell SocResult metrics merged in grid order (deterministic subset
  /// serialised, as in SweepReport).
  MetricsSnapshot metrics;

  /// google-benchmark-style JSON: one "benchmarks" entry per chip carrying
  /// cores / tam_width / tp_percent / chip_tat_cycles / serial_tat_cycles /
  /// tam_utilization_pct. Everything except the context block and
  /// real_time is bit-identical at any job count and SIMD backend.
  std::string to_json() const;
  bool write_json(const std::string& path) const;
};

class SocSweepRunner {
 public:
  explicit SocSweepRunner(SweepOptions opts = {});
  /// Runner sized from a unified FlowConfig (jobs, trace_dir, ledger).
  explicit SocSweepRunner(const FlowConfig& config);

  /// Run all cells on one pool; a cell's exception propagates after the
  /// remaining cells finish.
  SocSweepReport run(const CellLibrary& lib, std::vector<SocSweepJob> jobs) const;

  /// The SOC grid: every (cores, tam_width, tp_percent) triple in
  /// cores-major order with labels "soc=<n>/tam=<w>/tp=<pct>". Cells
  /// inherit config.options / config.stages / config.scale.
  static std::vector<SocSweepJob> grid(const std::vector<int>& cores,
                                       const std::vector<int>& tam_widths,
                                       const std::vector<double>& tp_percents,
                                       const FlowConfig& config);

  int effective_jobs() const;

 private:
  SweepOptions opts_;
};

}  // namespace tpi
