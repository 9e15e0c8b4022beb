#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "liberty/builder.h"
#include "liberty/serialize.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace cb {

namespace {

/// Shortest round-trip rendering of a double; non-finite values (which
/// JSON cannot carry) become null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Recorder::attempts(const std::string& phase, long attempted,
                        long failed) {
  Phase& p = phases_[phase];
  p.attempted += attempted;
  p.failed += failed;
}

void Recorder::fail(const std::string& phase, const std::string& what) {
  failures_.push_back(phase + ": " + what);
  std::fprintf(stderr, "closurebench: FAIL %s: %s\n", phase.c_str(),
               what.c_str());
}

bool Recorder::anyFailure() const {
  if (!failures_.empty()) return true;
  for (const auto& [name, p] : phases_)
    if (p.failed != 0) return true;
  return false;
}

std::string Recorder::toJson(const Options& opt) const {
  std::ostringstream os;
  os << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"input_digest\":\""
     << std::hex << digest_ << std::dec << "\",\"samples\":{";
  bool first = true;
  for (const auto& [name, vs] : samples_) {
    os << (first ? "" : ",") << quoted(name) << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i)
      os << (i ? "," : "") << num(vs[i]);
    os << "]";
    first = false;
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : values_) {
    os << (first ? "" : ",") << quoted(name) << ":" << num(v);
    first = false;
  }
  os << "},\"phases\":{";
  first = true;
  for (const auto& [name, p] : phases_) {
    os << (first ? "" : ",") << quoted(name) << ":{\"attempted\":"
       << p.attempted << ",\"failed\":" << p.failed << "}";
    first = false;
  }
  os << "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? "," : "") << quoted(failures_[i]);
  os << "]}\n";
  return os.str();
}

void Digest::add(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  add(u);
}

void Digest::addNetlist(const tc::Netlist& nl) {
  add(static_cast<std::uint64_t>(nl.instanceCount()));
  add(static_cast<std::uint64_t>(nl.netCount()));
  for (tc::InstId i = 0; i < nl.instanceCount(); ++i) {
    const tc::Instance& inst = nl.instance(i);
    add(static_cast<std::uint64_t>(inst.cellIndex));
    add(static_cast<std::uint64_t>(inst.fanout));
    for (tc::NetId n : inst.fanin) add(static_cast<std::uint64_t>(n));
  }
}

std::shared_ptr<const tc::Library> cachedLibrary(const tc::LibraryPvt& pvt,
                                                 bool quick) {
  tc::CharConfig cfg;
  cfg.quick = quick;
  const std::string path =
      tc::libraryCachePath(pvt, tc::charConfigDigest(cfg));
  if (!std::filesystem::exists(path)) return nullptr;
  tc::TraceSpan span("bench", "liberty.load");
  return tc::readLibraryFile(path);
}

std::shared_ptr<const tc::Library> loadLibrary(const tc::LibraryPvt& pvt,
                                               bool quick) {
  if (auto lib = cachedLibrary(pvt, quick)) return lib;
  // Cold cache: characterize (and persist) through the library memo.
  return tc::characterizedLibrary(pvt, quick);
}

double peakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  // The calibration ring is resident from before the first set-up on.
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0 -
         kCalibrationRingMb;
}

double currentRssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

/// Keeps the calibration chases' results live.
volatile std::uint32_t gCalibrationSink;

/// The calibration ring: one random cycle through kCalibrationRingMb of
/// 4-byte links (Sattolo's shuffle), built on first use.
const std::vector<std::uint32_t>& calibrationRing() {
  static const std::vector<std::uint32_t> ring = [] {
    const std::uint32_t n = kCalibrationRingMb << 18;
    std::vector<std::uint32_t> r(n);
    for (std::uint32_t i = 0; i < n; ++i) r[i] = i;
    tc::Rng rng(0xCA11B8A7Eull);
    for (std::uint32_t i = n - 1; i > 0; --i)
      std::swap(r[i], r[rng.below(i)]);
    return r;
  }();
  return ring;
}

}  // namespace

void calibrate(Recorder& rec) {
  constexpr int kChains = 4, kSteps = 1 << 15, kShifts = 3'000'000,
                kPasses = 2;
  const std::vector<std::uint32_t>& ring = calibrationRing();
  const std::uint32_t n = static_cast<std::uint32_t>(ring.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = Clock::now();
    // Memory latency: the chases miss this process's cache share.
    std::uint32_t at[kChains];
    for (int c = 0; c < kChains; ++c)
      at[c] = static_cast<std::uint32_t>(c) * (n / kChains);
    for (int s = 0; s < kSteps; ++s)
      for (int c = 0; c < kChains; ++c) at[c] = ring[at[c]];
    // Core speed: a dependent xorshift chain that stays in registers.
    std::uint64_t x = 0x9E3779B97F4A7C15ull + pass;
    for (int i = 0; i < kShifts; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    gCalibrationSink = at[0] + at[1] + at[2] + at[3] +
                       static_cast<std::uint32_t>(x);
    rec.sample("calib_ms", msSince(t0));
  }
}

double counterValue(const std::string& name) {
  for (const tc::MetricSnapshot& m :
       tc::MetricsRegistry::global().snapshot(name))
    if (m.name == name) return m.value;
  return 0.0;
}

bool sameTiming(const tc::StaEngine& a, const tc::StaEngine& b) {
  for (tc::Check c : {tc::Check::kSetup, tc::Check::kHold}) {
    if (a.wns(c) != b.wns(c) || a.tns(c) != b.tns(c) ||
        a.violationCount(c) != b.violationCount(c))
      return false;
  }
  if (a.nanQuarantineCount() != b.nanQuarantineCount()) return false;
  const auto& ea = a.endpoints();
  const auto& eb = b.endpoints();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i)
    if (ea[i].vertex != eb[i].vertex || ea[i].setupSlack != eb[i].setupSlack ||
        ea[i].holdSlack != eb[i].holdSlack)
      return false;
  return true;
}

}  // namespace cb
