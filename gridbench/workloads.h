// The three workloads. Each call is one round: a fresh deployment built
// from the seed (timed as set-up), then the timed phase. A non-null
// tracer records the benchmark's calls into each layer and makes the
// round fill RoundResult::layers.
#pragma once

#include "bench.h"

namespace gridbench {

RoundResult run_campaign(const Options& options, Tracer* tracer);
RoundResult run_portal(const Options& options, Tracer* tracer);
RoundResult run_staging(const Options& options, Tracer* tracer);

}  // namespace gridbench
