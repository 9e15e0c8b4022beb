/// \file cold_ladder.cpp
/// \brief cold_ladder: time-to-first-WNS of a fresh serial LVF engine on a
/// 25k and a 100k block. Graph build, extraction, edge-plan build and the
/// endpoint/DRV checks are all of the work; the incremental, farm and
/// socket layers do none.

#include <cstdint>
#include <cstring>
#include <memory>

#include "aos_reference.h"
#include "common.h"
#include "liberty/builder.h"
#include "network/netgen.h"
#include "sta/engine.h"

namespace cb {

namespace {

using namespace tc;

struct Rung {
  int target;
  const char* root;     ///< benchmark root span of one cold run
  const char* graph;    ///< per-layer spans (unsuffixed at 100k: those
  const char* extract;  ///< feed the per-layer metrics)
  const char* run;
  const char* sweep;
};

/// One ladder: the 25k rung twice (its sub-200 ms runs are the noisier
/// series, so its median gets twice the samples), then the 100k rung.
constexpr int kLadder[] = {0, 0, 1};

constexpr Rung kRungs[] = {
    {25'000, "bench.first_wns_25k", "sta.graph_25k", "interconnect.extract_25k",
     "sta.run_25k", "sta.sweep_25k"},
    {100'000, "bench.first_wns_100k", "sta.graph", "interconnect.extract",
     "sta.run", "sta.sweep"},
};

struct Outcome {
  Ps wnsSetup, wnsHold, tnsSetup, tnsHold;
  int violSetup, violHold;
  bool operator==(const Outcome& o) const {
    return std::memcmp(this, &o, sizeof *this) == 0;
  }
};

Outcome outcomeOf(const StaEngine& e) {
  Outcome o;
  std::memset(&o, 0, sizeof o);
  o.wnsSetup = e.wns(Check::kSetup);
  o.wnsHold = e.wns(Check::kHold);
  o.tnsSetup = e.tns(Check::kSetup);
  o.tnsHold = e.tns(Check::kHold);
  o.violSetup = e.violationCount(Check::kSetup);
  o.violHold = e.violationCount(Check::kHold);
  return o;
}

std::uint64_t bitsOf(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Mismatched words between the engine's arena and the AoS propagator.
long aosMismatches(const StaEngine& eng) {
  aosref::AosPropagator ref(eng);
  ref.runForward();
  ref.runBackward();
  long bad = 0;
  const TimingGraph& g = eng.graph();
  for (VertexId v = 0; v < g.vertexCount(); ++v) {
    const aosref::Vt& r = ref.at(v);
    for (int m = 0; m < 2; ++m)
      for (int tr = 0; tr < 2; ++tr) {
        const Mode mode = static_cast<Mode>(m);
        bad += bitsOf(eng.arrivalRaw(v, mode, tr)) != bitsOf(r.arr[m][tr]);
        bad += bitsOf(eng.slewRaw(v, mode, tr)) != bitsOf(r.slew[m][tr]);
        bad += bitsOf(eng.varRaw(v, mode, tr)) != bitsOf(r.var[m][tr]);
      }
    for (int tr = 0; tr < 2; ++tr)
      bad += bitsOf(eng.requiredRaw(v, tr)) != bitsOf(ref.required(v, tr));
  }
  return bad;
}

}  // namespace

void runColdLadder(const Options& opt, Recorder& rec) {
  std::shared_ptr<const Library> lib;
  std::unique_ptr<Netlist> blocks[2];
  double setupSpent = 0.0;
  calibrate(rec);
  for (int rep = 0; moreSetups(rep, setupSpent); ++rep) {
    tc::traceSetEnabled(opt.trace);
    const auto t0 = Clock::now();
    TraceSpan span("bench", "bench.setup");
    lib = loadLibrary(LibraryPvt{}, /*quick=*/false);
    for (int r = 0; r < 2; ++r) {
      TraceSpan gen("bench", "network.netgen");
      blocks[r] = std::make_unique<Netlist>(generateBlock(
          lib, profileScaled(kRungs[r].target, opt.seed * 2 + r)));
    }
    const double setupS = msSince(t0) / 1000.0;
    setupSpent += setupS;
    rec.sample("setup_s", setupS);
    rec.attempt("setup", true);
  }
  Digest digest;
  for (const auto& b : blocks) digest.addNetlist(*b);
  rec.setDigest(digest.value());
  rec.value("instances_25k", blocks[0]->instanceCount());
  rec.value("instances_100k", blocks[1]->instanceCount());

  Scenario sc;
  sc.name = "lvf_tt";
  sc.lib = lib;
  sc.derate.mode = DerateMode::kLvf;

  Outcome first[2];
  auto start = Clock::now();
  double coldMs100k = 0.0;
  long it = 0;
  // Ladder 0 warms the heap up and is checked but not timed; then at
  // least three timed ladders so medians and the oracle have material.
  for (; it < 4 || msSince(start) < opt.seconds * 1000.0; ++it) {
    const bool warmUp = it == 0;
    if (it == 1) start = Clock::now();
    calibrate(rec);
    const bool traced = traceIteration(opt, it);
    for (int r : kLadder) {
      const Rung& rung = kRungs[r];
      const double missesBefore = counterValue("delaycalc.rc_cache_misses");
      const auto t0 = Clock::now();
      std::unique_ptr<StaEngine> eng;
      Outcome o;
      {
        TraceSpan root("bench", rung.root);
        {
          TraceSpan s("bench", rung.graph);
          eng = std::make_unique<StaEngine>(*blocks[r], sc);
        }
        {
          TraceSpan s("bench", rung.extract);
          eng->delayCalc().warmCache();
        }
        {
          TraceSpan s("bench", rung.run);
          eng->run();
        }
        o = outcomeOf(*eng);
      }
      const double ms = msSince(t0);
      const std::string series = r == 1 ? "op_ms" : "aux_ms";
      if (!warmUp) rec.sample(traced ? series + "_traced" : series, ms);
      if (r == 1 && !warmUp) {
        coldMs100k += ms;
        rec.value("rc_misses_per_run",
                  counterValue("delaycalc.rc_cache_misses") - missesBefore);
      }
      if (opt.trace) {  // only sta.sweep_ms reads it
        TraceSpan s("bench", rung.sweep);
        eng->repropagate();
      }
      const bool same = it == 0 || o == first[r];
      if (it == 0) first[r] = o;
      rec.attempt(r == 1 ? "cold_100k" : "cold_25k", same);
      if (!same)
        rec.fail("cold_ladder", "WNS/TNS/violations differ across iterations "
                                "at " + std::to_string(rung.target));
    }
  }
  tc::traceSetEnabled(false);
  // 100k cold runs per second of 100k cold-run time: the 25k rungs and
  // the repropagate() sweeps are left out.
  rec.value("ops_completed", static_cast<double>(it - 1));
  rec.value("op_time_s", coldMs100k / 1000.0);

  // Oracle, outside the timed region: the 100k engine against the pinned
  // AoS propagator, word for word.
  StaEngine eng(*blocks[1], sc);
  eng.run();
  const long bad = aosMismatches(eng);
  const bool same = outcomeOf(eng) == first[1];
  rec.attempt("oracle", bad == 0 && same);
  if (bad != 0)
    rec.fail("oracle", std::to_string(bad) +
                           " timing words differ from the AoS reference");
  if (!same)
    rec.fail("oracle", "oracle engine WNS/TNS differ from the timed runs");
}

}  // namespace cb
