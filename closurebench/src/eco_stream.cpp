/// \file eco_stream.cpp
/// \brief eco_stream: one persistent serial engine on a 100k block takes a
/// seeded stream of ECOs, each followed by updateTiming(). Most ECOs are
/// in-place edits (cell swap, useful skew, NDR class, Miller override);
/// every kStructuralEvery-th is a structural repair transform with one
/// edit. Per-ECO cost should track the dirty frontier, not design size.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "liberty/builder.h"
#include "network/netgen.h"
#include "opt/transforms.h"
#include "sta/engine.h"
#include "util/rng.h"

namespace cb {

namespace {

using namespace tc;

/// Every kStructuralEvery-th ECO is structural. This is a sampling rate,
/// not a traffic claim: structural and in-place ECOs are separate series,
/// so it only sets how many of each a run collects. (The closure loop's
/// own ratio, about one buffer per three in-place edits, would spend
/// nearly 90% of a run in ~0.8 s structural updates.)
constexpr int kStructuralEvery = 16;
/// Count metrics cover this many leading in-place / structural ECOs, so
/// they depend on the seed only, never on how many ECOs fit in the run.
constexpr int kInPlaceWindow = 64;
constexpr int kStructuralWindow = 4;
/// Fresh-engine oracle cadence (also run once at the end).
constexpr int kOracleEvery = 200;
/// The leading ECOs (one structural cycle) warm the engine's incremental
/// state up; they are applied and checked but not timed.
constexpr int kWarmUpEcos = kStructuralEvery;
/// Host-speed reference cadence, ms of wall time.
constexpr double kCalibrateEveryMs = 500.0;

/// In-place ECO kinds and their weights. The first four are the edits the
/// repository's closure loop (ClosureLoop, MacDonald's repair order, as
/// bench_fig01_closure_loop prints it) makes in its timing-driven
/// iteration: 54 Vt swaps, 22 resizes, 35 NDR promotions, 2 useful-skew
/// steps. That loop makes no Miller edits; giving SI Miller overrides the
/// weight of the other wire-level fix (NDR) is an assumption.
enum InPlaceKind { kVtSwap, kResize, kNdr, kSkew, kMiller, kInPlaceKinds };
constexpr int kMix[kInPlaceKinds] = {54, 22, 35, 2, 35};

/// Endpoints whose slack differs between two endpoint lists (matched by
/// vertex; an endpoint present on one side only counts as changed).
long changedEndpoints(const std::vector<EndpointTiming>& before,
                      const std::vector<EndpointTiming>& after) {
  std::unordered_map<VertexId, const EndpointTiming*> prev;
  prev.reserve(before.size());
  for (const EndpointTiming& e : before) prev.emplace(e.vertex, &e);
  long changed = 0;
  for (const EndpointTiming& e : after) {
    const auto it = prev.find(e.vertex);
    if (it == prev.end()) {
      ++changed;
      continue;
    }
    changed += it->second->setupSlack != e.setupSlack ||
               it->second->holdSlack != e.holdSlack;
    prev.erase(it);
  }
  return changed + static_cast<long>(prev.size());
}

/// Seeded in-place ECO generator over the current netlist state.
class EcoSource {
 public:
  EcoSource(const Netlist& nl, std::uint64_t seed) : rng_(seed) {
    for (InstId i = 0; i < nl.instanceCount(); ++i) {
      if (nl.instance(i).isClockTreeBuffer) continue;
      (nl.isSequential(i) ? flops_ : gates_).push_back(i);
    }
    for (NetId n = 0; n < nl.netCount(); ++n) {
      const InstId d = nl.net(n).driver;
      if (d >= 0 && !nl.instance(d).isClockTreeBuffer && !nl.net(n).sinks.empty())
        nets_.push_back(n);
    }
  }

  /// Apply one in-place edit through the netlist's notifying mutators.
  /// Returns false when no legal edit was found. The kinds come in the
  /// proportions of kMix (see there).
  bool apply(Netlist& nl, Digest* digest) {
    const int kind = nextKind();
    switch (kind) {
      case kVtSwap:  // other Vt, same drive, as vtSwapFix
      case kResize: {  // other drive, same Vt, as gateSizingFix
        for (int tries = 0; tries < 64; ++tries) {
          const InstId v = pick(gates_);
          const Cell& c = nl.cellOf(v);
          const int cand =
              kind == kVtSwap
                  ? nl.library().variant(
                        c.footprint, static_cast<VtClass>(rng_.below(4)),
                        c.drive)
                  : nl.library().variant(
                        c.footprint, c.vt,
                        rng_.below(2) ? c.drive * 2 : c.drive / 2);
          if (cand < 0 || cand == nl.instance(v).cellIndex) continue;
          record(digest, kind, v, cand);
          nl.swapCell(v, cand);
          return true;
        }
        return false;
      }
      case kNdr: {  // NDR promotion / demotion
        const NetId n = pick(nets_);
        const int cls = static_cast<int>(
            (nl.net(n).ndrClass + 1 + rng_.below(2)) % 3);
        record(digest, kind, n, cls);
        nl.setNdrClass(n, cls);
        return true;
      }
      case kSkew: {  // useful skew on a capture flop
        const InstId f = pick(flops_);
        const double skew = rng_.uniform(-20.0, 20.0);
        record(digest, kind, f, skew);
        nl.setUsefulSkew(f, skew);
        return true;
      }
      default: {  // SI Miller override
        const NetId n = pick(nets_);
        const double factor = rng_.uniform(0.5, 2.0);
        record(digest, kind, n, factor);
        nl.setMillerOverride(n, factor);
        return true;
      }
    }
  }

 private:
  /// The next kind from a shuffled deck that holds each kind kMix times,
  /// so every 148 in-place ECOs (one deck) have exactly the mix. Whether an ECO
  /// re-checks every endpoint (the slow mode) depends mostly on its kind,
  /// so drawing kinds independently would let the slow share, and every
  /// mean over a run with it, swing from seed to seed.
  int nextKind() {
    if (deckAt_ == deck_.size()) {
      deck_.clear();
      for (int k = 0; k < kInPlaceKinds; ++k)
        deck_.insert(deck_.end(), kMix[k], k);
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng_.below(i + 1)]);
      deckAt_ = 0;
    }
    return deck_[deckAt_++];
  }
  int pick(const std::vector<int>& from) {
    return from[rng_.below(from.size())];
  }
  /// Fold one edit into the input digest (null: not digested).
  static void record(Digest* d, int kind, int target, double arg) {
    if (!d) return;
    d->add(static_cast<std::uint64_t>(kind));
    d->add(static_cast<std::uint64_t>(target));
    d->add(arg);
  }

  Rng rng_;
  std::vector<int> deck_;
  std::size_t deckAt_ = 0;
  std::vector<InstId> gates_, flops_;
  std::vector<NetId> nets_;
};

}  // namespace

void runEcoStream(const Options& opt, Recorder& rec) {
  std::shared_ptr<const Library> lib;
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<StaEngine> eng;
  Scenario sc;
  sc.name = "lvf_tt";
  sc.derate.mode = DerateMode::kLvf;
  double setupSpent = 0.0;
  calibrate(rec);
  for (int rep = 0; moreSetups(rep, setupSpent); ++rep) {
    tc::traceSetEnabled(opt.trace);
    eng.reset();  // deregisters from the netlist it is about to lose
    const auto t0 = Clock::now();
    TraceSpan span("bench", "bench.setup");
    lib = loadLibrary(LibraryPvt{}, /*quick=*/false);
    sc.lib = lib;
    {
      TraceSpan gen("bench", "network.netgen");
      nl = std::make_unique<Netlist>(
          generateBlock(lib, profileScaled(100'000, opt.seed * 2 + 1)));
    }
    {
      TraceSpan s("bench", "sta.prebuild");
      eng = std::make_unique<StaEngine>(*nl, sc);
      eng->run();
    }
    const double setupS = msSince(t0) / 1000.0;
    setupSpent += setupS;
    rec.sample("setup_s", setupS);
    rec.attempt("setup", true);
  }
  Digest digest;
  digest.addNetlist(*nl);
  EcoSource source(*nl, opt.seed ^ 0xEC0u);

  RepairConfig repair;
  repair.maxEdits = 1;
  repair.slackTarget = 50.0;

  auto oracle = [&](const char* when) {
    StaEngine fresh(*nl, sc);
    fresh.run();
    const bool same = sameTiming(*eng, fresh);
    rec.attempt("oracle", same);
    if (!same)
      rec.fail("oracle", std::string("incremental state differs from a "
                                     "fresh engine ") + when);
  };

  long inPlace = 0, structural = 0, slow = 0, timedInPlace = 0;
  double fullFallbacks = 0.0;
  double timedMs = 0.0, inPlaceMs = 0.0;
  long n = 0;
  auto lastCalibration = Clock::now();
  calibrate(rec);
  for (; n < kWarmUpEcos || inPlace < kInPlaceWindow ||
         structural < kStructuralWindow || timedMs < opt.seconds * 1000.0;
       ++n) {
    const bool warmUp = n < kWarmUpEcos;
    if (msSince(lastCalibration) >= kCalibrateEveryMs) {
      calibrate(rec);
      lastCalibration = Clock::now();
    }
    const bool traced = traceIteration(opt, n);
    const bool isStructural = n % kStructuralEvery == kStructuralEvery - 1;
    if (isStructural) {
      const auto t0 = Clock::now();
      int edits = 0;
      {
        TraceSpan root("bench", "bench.eco_structural");
        {
          TraceSpan s("bench", "opt.structural_edit");
          edits = (structural % 2 == 0)
                      ? bufferInsertionFix(*nl, *eng, repair)
                      : pinSwapFix(*nl, *eng, repair);
        }
        TraceSpan s("bench", "sta.incr.structural_update");
        eng->updateTiming();
      }
      const double ms = msSince(t0);
      if (!warmUp) {
        timedMs += ms;
        rec.sample(traced ? "aux_ms_traced" : "aux_ms", ms);
      }
      if (structural < kStructuralWindow)
        digest.add(static_cast<std::uint64_t>(edits));
      rec.attempt("eco_structural", edits == 1);
      if (edits != 1)
        rec.fail("eco_structural", "repair transform made no edit");
      if (structural < kStructuralWindow)
        fullFallbacks += eng->lastUpdateStats().full ? 1.0 : 0.0;
      ++structural;
    } else {
      const bool inWindow = inPlace < kInPlaceWindow;
      std::vector<EndpointTiming> before;
      if (inWindow) before = eng->endpoints();
      const auto t0 = Clock::now();
      bool ok = false;
      double updateUs = 0.0;
      {
        TraceSpan root("bench", "bench.eco");
        {
          TraceSpan s("bench", "network.edit");
          ok = source.apply(*nl, inWindow ? &digest : nullptr);
        }
        const auto t1 = Clock::now();
        TraceSpan s("bench", "sta.incr.update");
        eng->updateTiming();
        updateUs = usSince(t1);
      }
      const double ms = msSince(t0);
      if (!warmUp) {
        timedMs += ms;
        inPlaceMs += ms;
        ++timedInPlace;
        rec.sample(traced ? "op_ms_traced" : "op_ms", ms);
      }
      rec.attempt("eco_in_place", ok);
      if (!ok) rec.fail("eco_in_place", "no legal in-place edit found");
      const StaEngine::UpdateStats& st = eng->lastUpdateStats();
      if (static_cast<std::size_t>(st.endpointsReevaluated) >=
          eng->graph().endpoints().size())
        ++slow;
      if (inWindow) {
        rec.sample("forward_recomputed", st.forwardRecomputed);
        rec.sample("required_recomputed", st.requiredRecomputed);
        rec.sample("endpoints_reevaluated", st.endpointsReevaluated);
        rec.sample("us_per_frontier_vertex",
                   updateUs / std::max(1, st.forwardRecomputed));
        rec.sample("endpoints_changed", static_cast<double>(changedEndpoints(
                                            before, eng->endpoints())));
      }
      ++inPlace;
    }
    if ((n + 1) % kOracleEvery == 0) {
      tc::traceSetEnabled(false);
      oracle("mid-stream");
    }
  }
  tc::traceSetEnabled(false);
  // In-place ECOs per second of in-place ECO time: structural ECOs and
  // the oracle are left out.
  rec.value("ops_completed", static_cast<double>(timedInPlace));
  rec.value("op_time_s", inPlaceMs / 1000.0);
  rec.value("slow_ecos", static_cast<double>(slow));
  rec.value("in_place_ecos", static_cast<double>(inPlace));
  rec.value("full_fallbacks", fullFallbacks);
  oracle("at the end");
  rec.setDigest(digest.value());
}

}  // namespace cb
