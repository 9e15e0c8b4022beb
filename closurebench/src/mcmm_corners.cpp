/// \file mcmm_corners.cpp
/// \brief mcmm_corners: the nine pruned 16nm signoff views of
/// bench_corner_explosion, each under flat OCV and LVF (18 scenarios over
/// the views' BEOL corners), on a ~25k-gate block. Each iteration runs
/// the set once in-process on a 4-thread pool and once on a 4-worker
/// process farm; one serial pass per run is the oracle both must match
/// byte for byte.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.h"
#include "liberty/builder.h"
#include "network/netgen.h"
#include "signoff/corners.h"
#include "signoff/farm.h"
#include "signoff/snapshot.h"
#include "util/thread_pool.h"

namespace cb {

namespace {

using namespace tc;

constexpr int kThreads = 4;
constexpr int kGates = 25'000;

/// The pruned dominant 16nm views (one mode's setup views plus the hold
/// views and the typical view), as in bench_corner_explosion.
std::vector<ViewDef> prunedViews() {
  CornerUniverse u = CornerUniverse::socUniverse(16);
  u.modes = {"func"};
  std::vector<ViewDef> views = pruneForSetup(u);
  for (const ViewDef& v : pruneForHold(u)) views.push_back(v);
  views.push_back(ViewDef{"func"});
  return views;
}

/// One library per view. Deep-underdrive views sit below where the
/// characterizer settles, so the supply walks up in 50 mV steps until one
/// characterizes. Failed steps are never cached, so the first cached step
/// is that one and a warm cache needs no characterization attempt.
std::shared_ptr<const Library> viewLibrary(ViewDef& v) {
  const Volt requested = v.vdd;
  for (; v.vdd <= 1.3; v.vdd += 0.05)
    if (auto lib = cachedLibrary(LibraryPvt{v.process, v.vdd, v.temp}, true))
      return lib;
  for (v.vdd = requested; v.vdd <= 1.3; v.vdd += 0.05) {
    try {
      return loadLibrary(LibraryPvt{v.process, v.vdd, v.temp}, true);
    } catch (const std::runtime_error&) {
    }
  }
  return nullptr;
}

std::vector<Scenario> scenarioSet() {
  std::vector<Scenario> out;
  for (ViewDef v : prunedViews()) {
    auto lib = viewLibrary(v);
    if (!lib) throw std::runtime_error("view " + v.name() +
                                       " does not characterize");
    for (DerateMode mode : {DerateMode::kFlatOcv, DerateMode::kLvf}) {
      Scenario sc;
      sc.name = v.name() + (mode == DerateMode::kLvf ? "_lvf" : "_ocv");
      sc.lib = lib;
      sc.beol = v.beol;
      sc.techNm = 16;
      sc.derate.mode = mode;
      out.push_back(sc);
    }
  }
  return out;
}

/// Byte-level comparison of two MCMM results: every scenario through the
/// farm's result codec, then the merged diagnostic stream.
bool identical(const McmmResult& a, const McmmResult& b) {
  if (a.scenarios.size() != b.scenarios.size() ||
      a.merged.size() != b.merged.size())
    return false;
  for (std::size_t i = 0; i < a.scenarios.size(); ++i)
    if (farmproto::encodeScenarioResult(a.scenarios[i]) !=
        farmproto::encodeScenarioResult(b.scenarios[i]))
      return false;
  for (std::size_t i = 0; i < a.merged.size(); ++i)
    if (a.merged[i].str() != b.merged[i].str()) return false;
  return true;
}

}  // namespace

void prepareMcmmLibraries() { scenarioSet(); }

void runMcmmCorners(const Options& opt, Recorder& rec) {
  std::vector<Scenario> scenarios;
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<McmmRunner> runner;
  double setupSpent = 0.0;
  calibrate(rec);
  for (int rep = 0; moreSetups(rep, setupSpent); ++rep) {
    tc::traceSetEnabled(opt.trace);
    runner.reset();
    const auto t0 = Clock::now();
    TraceSpan span("bench", "bench.setup");
    scenarios = scenarioSet();
    BlockProfile profile = profileTiny();
    profile.numGates = kGates;
    profile.numFlops = kGates / 12;
    profile.levels = 16;
    profile.clockPeriod = 1200.0;
    profile.seed = opt.seed * 2 + 1;
    {
      TraceSpan gen("bench", "network.netgen");
      nl = std::make_unique<Netlist>(generateBlock(scenarios.front().lib,
                                                   profile));
    }
    runner = std::make_unique<McmmRunner>(*nl, scenarios);
    const double setupS = msSince(t0) / 1000.0;
    setupSpent += setupS;
    rec.sample("setup_s", setupS);
    rec.attempt("setup", true);
  }
  tc::traceSetEnabled(false);
  Digest digest;
  digest.addNetlist(*nl);
  rec.setDigest(digest.value());
  ThreadPool pool(kThreads);
  const double nScenarios = static_cast<double>(scenarios.size());

  // The serial pass: the oracle every later pass must equal, and the
  // base of the pool speedup and of the per-scenario memory estimate.
  const double rssBefore = currentRssMb();
  const auto ts = Clock::now();
  const McmmResult serial = runner->run(McmmOptions{});
  rec.value("serial_ms", msSince(ts));
  rec.value("rss_mb_per_scenario", (currentRssMb() - rssBefore) / nScenarios);
  rec.attempt("mcmm_serial", serial.scenarios.size() == scenarios.size());
  if (serial.scenarios.size() != scenarios.size())
    rec.fail("mcmm_serial", "serial pass lost scenarios");

  auto check = [&](const char* phase, const McmmResult& r, int quarantined) {
    const bool ok = quarantined == 0 && identical(r, serial);
    rec.attempt(phase, ok);
    if (!ok)
      rec.fail(phase, quarantined ? "scenarios quarantined"
                                  : "result differs from the serial pass");
  };

  // One untimed (but checked) pool pass warms the pool threads' heaps up.
  {
    McmmOptions mopt;
    mopt.pool = &pool;
    check("mcmm_pool", runner->run(mopt), 0);
  }

  const auto start = Clock::now();
  double poolMs = 0.0;
  long it = 0;
  for (; it < 2 || msSince(start) < opt.seconds * 1000.0; ++it) {
    calibrate(rec);
    const bool traced = traceIteration(opt, it);
    McmmOptions mopt;
    mopt.pool = &pool;
    const double missesBefore = counterValue("delaycalc.rc_cache_misses");
    auto t0 = Clock::now();
    McmmResult pooled;
    {
      TraceSpan root("bench", "bench.mcmm_pool");
      TraceSpan s("bench", "signoff.mcmm");
      pooled = runner->run(mopt);
    }
    const double passMs = msSince(t0);
    poolMs += passMs;
    rec.sample(traced ? "op_ms_traced" : "op_ms", passMs);
    if (it == 0)
      rec.value("rc_misses_per_pass",
                counterValue("delaycalc.rc_cache_misses") - missesBefore);
    const std::vector<double>& per = runner->scenarioElapsedMs();
    for (double ms : per) rec.sample("scenario_ms", ms);
    rec.sample("scenario_ms_max", *std::max_element(per.begin(), per.end()));

    FarmOptions fopt;
    fopt.workers = kThreads;
    FarmStats stats;
    t0 = Clock::now();
    McmmResult farmed;
    {
      TraceSpan root("bench", "bench.mcmm_farm");
      DesignSnapshot snap;
      {
        TraceSpan s("bench", "signoff.snapshot");
        snap = makeSnapshot(*nl, scenarios, /*includeSpef=*/false);
      }
      TraceSpan s("bench", "signoff.farm");
      farmed = runMcmmFarm(snap, fopt, &stats);
    }
    rec.sample(traced ? "aux_ms_traced" : "aux_ms", msSince(t0));
    rec.sample("farm_attempts", stats.attemptsLaunched);
    rec.sample("farm_retries", stats.retries);
    rec.sample("farm_crashes", stats.crashes);
    rec.sample("farm_quarantined", stats.quarantined);

    tc::traceSetEnabled(false);
    check("mcmm_pool", pooled, 0);
    check("mcmm_farm", farmed, stats.quarantined);
  }
  tc::traceSetEnabled(false);
  // In-process passes per second of pool-pass time: the snapshot, the
  // farm passes and the byte-compare checks are left out.
  rec.value("ops_completed", static_cast<double>(it));
  rec.value("op_time_s", poolMs / 1000.0);
}

}  // namespace cb
