#pragma once
/// \file common.h
/// \brief Shared plumbing for the closure-engineer benchmark: run options,
/// the result recorder every workload fills, library loading through the
/// on-disk characterization cache, and small timing helpers.
///
/// The benchmark binary only measures and checks; statistics (medians,
/// percentiles, span self times) are computed by run.py from the raw
/// samples and the Chrome trace this binary writes.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "liberty/library.h"
#include "network/netlist.h"
#include "sta/engine.h"
#include "util/trace.h"

namespace cb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outPath;    ///< raw result JSON
  std::string tracePath;  ///< Chrome trace JSON (trace runs only)
};

/// Raw measurements of one run, rendered as JSON for run.py.
class Recorder {
 public:
  /// Append one observation to a named sample list.
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  /// Set a single named value (last write wins).
  void value(const std::string& name, double v) { values_[name] = v; }
  /// Count one attempt of a phase and whether it succeeded.
  void attempt(const std::string& phase, bool ok) { attempts(phase, 1, !ok); }
  /// Count `attempted` attempts of a phase, `failed` of them failed.
  void attempts(const std::string& phase, long attempted, long failed);
  /// Record a correctness failure (oracle mismatch, client error, ...).
  void fail(const std::string& phase, const std::string& what);
  void setDigest(std::uint64_t d) { digest_ = d; }
  bool anyFailure() const;

  std::string toJson(const Options& opt) const;

 private:
  struct Phase {
    long attempted = 0;
    long failed = 0;
  };
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> failures_;
  std::uint64_t digest_ = 0;
};

/// FNV-1a over 64-bit words: the input digest that shows two seeds
/// generated different inputs (and one seed the same ones).
class Digest {
 public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d);
  void addNetlist(const tc::Netlist& nl);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// A characterized library read straight from the on-disk cache (the
/// cost a fresh process pays, timed under a "liberty.load" span), or null
/// when the cache has no entry for it.
std::shared_ptr<const tc::Library> cachedLibrary(const tc::LibraryPvt& pvt,
                                                 bool quick);
/// cachedLibrary(), characterizing and persisting the library on a miss
/// (which counts in liberty.char.builds). Throws when the PVT does not
/// characterize.
std::shared_ptr<const tc::Library> loadLibrary(const tc::LibraryPvt& pvt,
                                               bool quick);

/// Peak resident set of this process plus its largest child (farm
/// workers), MB, from getrusage, less the calibration ring.
double peakRssMb();
/// Current resident set of this process, MB, from /proc/self/statm.
double currentRssMb();

/// Sample the host-speed reference into "calib_ms": a fixed,
/// benchmark-owned kernel that shares no code with the program, four
/// interleaved pointer chases around a ring far larger than this process's
/// share of the host's last-level cache, then a dependent integer chain in
/// registers. On a shared host its time moves with the memory latency and
/// the core speed the neighbours leave this process, which is what moves
/// the workloads' times from run to run; metrics.py divides every time
/// metric by it. Workloads call this between operations, never inside a
/// timed region.
void calibrate(Recorder& rec);
/// Size of the calibration ring, MB (left out of peakRssMb()).
constexpr std::uint32_t kCalibrationRingMb = 64;

/// Value of a registry counter (0 when never registered).
double counterValue(const std::string& name);

/// Everything a signoff report reads, compared bitwise: WNS/TNS and
/// violation counts of both checks, the quarantine count and every
/// endpoint's slacks.
bool sameTiming(const tc::StaEngine& a, const tc::StaEngine& b);

/// Whether to perform set-up repetition `rep` (0-based) after `spentS`
/// seconds of set-up: at least five, then more while they total under
/// two seconds (at most 40), so cheap set-ups get a steadier median.
inline bool moreSetups(int rep, double spentS) {
  return rep < 5 || (spentS < 2.0 && rep < 40);
}

/// Toggle tracing for alternate iterations of a trace run: even
/// iterations untraced, odd ones traced, so the two medians give the
/// tracing overhead. Always off outside trace runs.
inline bool traceIteration(const Options& opt, long iteration) {
  const bool on = opt.trace && (iteration % 2 == 1);
  tc::traceSetEnabled(on);
  return on;
}

// Workload entry points. Each repeats its set-up while moreSetups() says
// so (recording setup_s), measures for opt.seconds, runs its oracle outside
// the timed region and records everything into `rec`.
void runColdLadder(const Options& opt, Recorder& rec);
void runEcoStream(const Options& opt, Recorder& rec);
void runMcmmCorners(const Options& opt, Recorder& rec);
void runServeMix(const Options& opt, Recorder& rec);

// Library loading of the workloads that use more than the default
// library, for the cache-priming `--prepare` step.
void prepareMcmmLibraries();
void prepareServeLibraries();

}  // namespace cb
