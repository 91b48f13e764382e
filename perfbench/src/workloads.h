// The four benchmark workloads. Each builds its inputs from opts.seed,
// measures for opts.seconds, checks every op, and fills `report` with the
// end-to-end metrics (opts.trace == false) or the per-layer split
// (opts.trace == true).
#pragma once
#include "common.h"

namespace perfbench {

void run_cli_tree(const Options& opts, Report& report);
void run_sweep_grid(const Options& opts, Report& report);
void run_serve_mix(const Options& opts, Report& report);
void run_net_mesh4(const Options& opts, Report& report);

}  // namespace perfbench
