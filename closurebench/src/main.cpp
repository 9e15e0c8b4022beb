/// \file main.cpp
/// \brief The closurebench binary. Runs one workload and writes its raw
/// samples, counters and phase accounting as JSON (plus a Chrome trace in
/// trace runs); run.py turns those into the benchmark's metrics.
///
///   closurebench --workload <cold_ladder|eco_stream|mcmm_corners|serve_mix>
///                --seed N --seconds S --trace 0|1 --out raw.json
///                [--trace-out trace.json]
///   closurebench --prepare     characterize every library the workloads use
///
/// Exit status: 0 when every phase succeeded and every oracle matched,
/// 1 on a failure (the raw JSON is still written), 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.h"
#include "liberty/builder.h"

using namespace cb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: closurebench --workload W --seed N --seconds S "
               "--trace 0|1 --out PATH [--trace-out PATH]\n"
               "       closurebench --prepare\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--prepare") {
      prepare = true;
    } else if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && hasValue) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out" && hasValue) {
      opt.outPath = argv[++i];
    } else if (a == "--trace-out" && hasValue) {
      opt.tracePath = argv[++i];
    } else {
      return usage();
    }
  }
  tc::registerCharMetrics();

  if (prepare) {
    loadLibrary(tc::LibraryPvt{}, /*quick=*/false);
    prepareMcmmLibraries();
    prepareServeLibraries();
    std::printf("closurebench: library cache ready (%.0f characterized)\n",
                counterValue("liberty.char.builds"));
    return 0;
  }

  void (*run)(const Options&, Recorder&) = nullptr;
  if (opt.workload == "cold_ladder") run = runColdLadder;
  if (opt.workload == "eco_stream") run = runEcoStream;
  if (opt.workload == "mcmm_corners") run = runMcmmCorners;
  if (opt.workload == "serve_mix") run = runServeMix;
  if (!run || opt.outPath.empty() || opt.seconds <= 0 ||
      (opt.trace && opt.tracePath.empty()))
    return usage();

  Recorder rec;
  try {
    run(opt, rec);
  } catch (const std::exception& e) {
    rec.attempt("run", false);
    rec.fail("run", e.what());
  }
  tc::traceSetEnabled(false);
  rec.value("peak_rss_mb", peakRssMb());
  rec.value("char_builds", counterValue("liberty.char.builds"));

  std::ofstream out(opt.outPath);
  out << rec.toJson(opt);
  out.close();
  if (!out) {
    std::fprintf(stderr, "closurebench: cannot write %s\n",
                 opt.outPath.c_str());
    return 1;
  }
  if (opt.trace && !tc::traceExportChrome(opt.tracePath)) return 1;
  return rec.anyFailure() ? 1 : 0;
}
