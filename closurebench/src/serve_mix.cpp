/// \file serve_mix.cpp
/// \brief serve_mix: an in-process Server holds an AES block under the two
/// scenarios bench_server_qps serves. Over loopback, two reader
/// connections send the bench_server_qps query mix closed-loop while one
/// writer connection commits bench_server_qps's single-op Miller ECOs
/// back to back. A serial phase then replays the same script through
/// Server::processLine on a fresh Session, which separates the transport
/// from the in-process cost.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "liberty/builder.h"
#include "network/netgen.h"
#include "serve/client.h"
#include "serve/epoch.h"
#include "serve/server.h"
#include "signoff/snapshot.h"
#include "util/rng.h"

namespace cb {

namespace {

using namespace tc;
using serve::EcoOp;

constexpr int kReaders = 2;
/// In-process replay: this many script requests and ECO commits.
constexpr int kInprocQueries = 800;
constexpr int kInprocEcos = 16;
/// The socket phase runs in windows; between two, every connection parks
/// while the host-speed reference is sampled. Window 0 warms the
/// connections up and is not recorded.
constexpr double kWarmUpWindowMs = 500.0;
constexpr double kWindowMs = 1000.0;
constexpr int kConnections = kReaders + 1;

/// Same corner pair bench_server_qps and tools/goalposts_server serve.
std::vector<Scenario> serveScenarios() {
  std::vector<Scenario> out(2);
  out[0].name = "func_tt";
  out[0].lib = loadLibrary(LibraryPvt{ProcessCorner::kTT, 0.9, 25.0}, true);
  out[1].name = "func_ssg_cw";
  out[1].lib = loadLibrary(LibraryPvt{ProcessCorner::kSSG, 0.81, 125.0}, true);
  out[1].beol = BeolCorner::kCworst;
  out[1].derate.mode = DerateMode::kAocv;
  return out;
}

BlockProfile aesProfile(std::uint64_t seed) {
  BlockProfile p = profileAes();
  p.seed = seed * 2 + 1;
  return p;
}

/// Query kinds of the bench_server_qps mix: slack 50%, endpoints 25%,
/// histogram and path 12.5% each.
enum Kind { kSlack, kEndpoints, kHistogram, kPath, kKinds };
const char* const kRttSpan[kKinds] = {"serve.rtt.slack", "serve.rtt.endpoints",
                                      "serve.rtt.histogram", "serve.rtt.path"};
const char* const kInprocSpan[kKinds] = {
    "serve.inproc.slack", "serve.inproc.endpoints", "serve.inproc.histogram",
    "serve.inproc.path"};

Kind kindOf(int q) {
  switch (q % 8) {
    case 0: case 1: case 2: case 3: return kSlack;
    case 4: case 5: return kEndpoints;
    case 6: return kHistogram;
    default: return kPath;
  }
}

Json queryFor(int q) {
  Json req = Json::object();
  req.set("cmd", "slack").set("design", "d");
  switch (kindOf(q)) {
    case kSlack:
      break;
    case kEndpoints:
      req.set("cmd", "endpoints").set("scenario", 0).set("k", 5);
      break;
    case kHistogram:
      req.set("cmd", "histogram").set("scenario", 1).set("bins", 16);
      break;
    default:
      req.set("cmd", "path").set("scenario", 0).set("endpoint", q % 32);
      break;
  }
  return req;
}

/// The writer's ECO stream: bench_server_qps's, one Miller-factor nudge
/// (1.0 to 1.45 in 0.05 steps) per commit, with the target net and the
/// step drawn from the seed instead of cycled. Always valid, so every
/// commit publishes an epoch.
class OpSource {
 public:
  OpSource(const Netlist& nl, std::uint64_t seed)
      : rng_(seed), nets_(static_cast<std::uint64_t>(nl.netCount())) {}

  EcoOp next() {
    EcoOp op;
    op.kind = EcoOp::Kind::kSetMillerOverride;
    op.target = static_cast<int>(rng_.below(nets_));
    op.dblArg = 1.0 + 0.05 * static_cast<double>(rng_.below(10));
    return op;
  }

 private:
  Rng rng_;
  std::uint64_t nets_;
};

Json ecoRequest(const EcoOp& op) {
  Json req = Json::object();
  req.set("cmd", "eco").set("design", "d");
  Json ops = Json::array();
  ops.push(serve::toJson(op));
  req.set("ops", std::move(ops));
  return req;
}

bool applied(const std::vector<Json>& lines) {
  return !lines.empty() && lines.back()["ok"].asBool(false) &&
         lines.back()["status"].asString() == "applied";
}

/// Samples one connection collects during the socket phase.
struct ConnLog {
  std::vector<double> untraced, traced;  ///< recorded round trips, ms
  long attempted = 0;  ///< every request, warm-up included
  long requests = 0;   ///< recorded requests
  long errors = 0;
  std::string firstError;
};

}  // namespace

void prepareServeLibraries() { serveScenarios(); }

void runServeMix(const Options& opt, Recorder& rec) {
  std::vector<Scenario> scenarios;
  std::unique_ptr<serve::Server> server;
  int port = 0;
  double setupSpent = 0.0;
  calibrate(rec);
  for (int rep = 0; moreSetups(rep, setupSpent); ++rep) {
    tc::traceSetEnabled(opt.trace);
    server.reset();
    const auto t0 = Clock::now();
    TraceSpan span("bench", "bench.setup");
    scenarios = serveScenarios();
    std::unique_ptr<Netlist> nl;
    {
      TraceSpan gen("bench", "network.netgen");
      nl = std::make_unique<Netlist>(
          generateBlock(scenarios[0].lib, aesProfile(opt.seed)));
    }
    server = std::make_unique<serve::Server>(serve::ServeOptions());
    Status added;
    {
      TraceSpan s("bench", "serve.add_design");
      added = server->addDesign("d", makeSnapshot(*nl, scenarios, false));
    }
    auto started = server->start();
    const bool ok = added.ok() && started.ok();
    rec.attempt("setup", ok);
    if (!ok) {
      rec.fail("setup", "server did not come up");
      return;
    }
    port = started.value();
    const double setupS = msSince(t0) / 1000.0;
    setupSpent += setupS;
    rec.sample("setup_s", setupS);
  }
  tc::traceSetEnabled(false);
  const Netlist base = server->design("d")->current()->netlist();
  Digest digest;
  digest.addNetlist(base);
  OpSource ops(base, opt.seed ^ 0x5E7u);
  {
    OpSource probe(base, opt.seed ^ 0x5E7u);  // the stream's leading ops
    for (int i = 0; i < 64; ++i) {
      const EcoOp op = probe.next();
      digest.add(static_cast<std::uint64_t>(op.kind));
      digest.add(static_cast<std::uint64_t>(op.target));
      digest.add(static_cast<std::uint64_t>(op.intArg));
      digest.add(op.dblArg);
    }
    rec.setDigest(digest.value());
  }
  std::vector<EcoOp> log;  // commit order (single writer)

  // Let the server's lazy set-up finish before timing: hold a pin on
  // epoch 0 across two commits, so the second one builds a replica
  // instead of reusing one and the retired-replica pool reaches its
  // steady-state size. Left to the socket phase, whether a reader's pin
  // forces that build is a race, and the run's peak memory with it.
  {
    serve::Server::Session warm;
    auto ok = [&](const Json& req) {
      const auto out = server->processLine(warm, req.dump());
      auto r = Json::parse(out.back());
      return r.ok() && r.value()["ok"].asBool(false) &&
             (req["cmd"].asString() != "eco" ||
              r.value()["status"].asString() == "applied");
    };
    Json pin = Json::object();
    pin.set("cmd", "pin").set("design", "d");
    bool warmed = ok(pin);
    for (int i = 0; i < 2; ++i) {
      const EcoOp op = ops.next();
      warmed = warmed && ok(ecoRequest(op));
      log.push_back(op);
    }
    pin.set("cmd", "unpin");
    warmed = warmed && ok(pin);
    rec.attempt("warm_up", warmed);
    if (!warmed) rec.fail("warm_up", "pinned warm-up commits failed");
  }

  // --- socket phase ----------------------------------------------------------
  std::atomic<bool> stop{false}, paused{false}, recording{false};
  std::atomic<int> parked{0}, exited{0};
  // Called by a connection between two requests: wait out a pause.
  auto park = [&] {
    if (!paused.load()) return;
    ++parked;
    while (paused.load() && !stop.load())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    --parked;
  };
  std::vector<ConnLog> readers(kReaders);
  ConnLog writer;
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& L = readers[static_cast<std::size_t>(c)];
      serve::ServeClient cl;
      if (!cl.connect("127.0.0.1", port).ok()) {
        ++L.errors;
        L.firstError = "connect failed";
        ++exited;
        return;
      }
      for (int q = c; !stop.load(std::memory_order_relaxed); ++q) {
        park();
        if (stop.load()) break;
        const Json req = queryFor(q);
        const bool traced = tc::traceEnabled();
        const auto t0 = Clock::now();
        const Result<Json> resp = [&] {
          TraceSpan s("bench", kRttSpan[kindOf(q)]);
          return cl.callOne(req);
        }();
        const double ms = msSince(t0);
        ++L.attempted;
        if (recording.load()) {
          (traced ? L.traced : L.untraced).push_back(ms);
          ++L.requests;
        }
        if (!resp.ok() || !resp.value()["ok"].asBool(false)) {
          if (!L.errors++)
            L.firstError = resp.ok() ? resp.value().dump()
                                     : resp.status().message();
        }
      }
    });
  }
  threads.emplace_back([&] {
    serve::ServeClient cl;
    if (!cl.connect("127.0.0.1", port).ok()) {
      ++writer.errors;
      writer.firstError = "connect failed";
      ++exited;
      return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      park();
      if (stop.load()) break;
      const EcoOp op = ops.next();
      const bool traced = tc::traceEnabled();
      const auto t0 = Clock::now();
      const Result<std::vector<Json>> resp = [&] {
        TraceSpan s("bench", "serve.rtt.eco");
        return cl.call(ecoRequest(op));
      }();
      const double ms = msSince(t0);
      ++writer.attempted;
      if (recording.load()) {
        (traced ? writer.traced : writer.untraced).push_back(ms);
        ++writer.requests;
      }
      if (resp.ok() && applied(resp.value())) {
        log.push_back(op);
        rec.value("reply_lines_eco", static_cast<double>(resp.value().size()));
      } else if (!writer.errors++) {
        writer.firstError = "eco not applied";
      }
    }
  });
  // A window's time runs from resuming the connections until all of them
  // are parked again, so it holds every request recorded in it. Trace
  // runs alternate 100 ms traced / untraced slices within a window.
  double activeMs = 0.0;
  long slice = 0;
  for (int window = 0; window == 0 || activeMs < opt.seconds * 1000.0;
       ++window) {
    recording = window > 0;
    const auto t0 = Clock::now();
    paused = false;
    while (parked.load() > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    while (msSince(t0) < (window == 0 ? kWarmUpWindowMs : kWindowMs)) {
      if (window > 0) traceIteration(opt, slice++);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    paused = true;
    while (parked.load() + exited.load() < kConnections)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    tc::traceSetEnabled(false);
    if (window > 0) activeMs += msSince(t0);
    calibrate(rec);
  }
  stop = true;
  paused = false;
  for (auto& t : threads) t.join();
  const double socketS = activeMs / 1000.0;

  long requests = writer.requests;
  for (const ConnLog& L : readers) {
    for (double v : L.untraced) rec.sample("op_ms", v);
    for (double v : L.traced) rec.sample("op_ms_traced", v);
    requests += L.requests;
  }
  for (double v : writer.untraced) rec.sample("aux_ms", v);
  for (double v : writer.traced) rec.sample("aux_ms_traced", v);
  for (const ConnLog* L : {&readers[0], &readers[1], &writer}) {
    const char* phase = L == &writer ? "eco_commit" : "query";
    rec.attempts(phase, std::max(L->attempted, 1L), L->errors);
    if (L->errors)
      rec.fail(phase, std::to_string(L->errors) +
                          " failed requests, first: " + L->firstError);
  }
  rec.value("requests", static_cast<double>(requests));
  rec.value("op_time_s", socketS);
  rec.value("ops_completed", static_cast<double>(requests));
  rec.value("epochs_published",
            static_cast<double>(server->design("d")->stats().epoch));
  {
    serve::Server::Session s;
    Json req = Json::object();
    req.set("cmd", "designs");
    const auto lines = server->processLine(s, req.dump());
    auto parsed = Json::parse(lines.back());
    if (parsed.ok()) {
      const Json& d = parsed.value()["designs"].at(0);
      const double reused = static_cast<double>(d["replicas_reused"].asInt());
      const double built = static_cast<double>(d["replicas_built"].asInt());
      rec.value("replica_reuse_frac", reused / std::max(1.0, reused + built));
    }
  }

  // --- serial in-process phase: the same script on a fresh Session ----------
  tc::traceSetEnabled(opt.trace);
  {
    serve::Server::Session session;
    long bad = 0;
    for (int q = 0; q < kInprocQueries; ++q) {
      const std::string line = queryFor(q).dump();
      std::vector<std::string> out;
      {
        TraceSpan s("bench", kInprocSpan[kindOf(q)]);
        out = server->processLine(session, line);
      }
      auto r = Json::parse(out.back());
      bad += !(r.ok() && r.value()["ok"].asBool(false));
    }
    for (int e = 0; e < kInprocEcos; ++e) {
      const EcoOp op = ops.next();
      const std::string line = ecoRequest(op).dump();
      std::vector<std::string> out;
      {
        TraceSpan s("bench", "serve.eco_inproc");
        out = server->processLine(session, line);
      }
      std::vector<Json> lines;
      for (const std::string& l : out)
        if (auto j = Json::parse(l); j.ok()) lines.push_back(j.value());
      if (applied(lines))
        log.push_back(op);
      else
        ++bad;
    }
    rec.attempts("inproc", kInprocQueries + kInprocEcos, bad);
    if (bad) rec.fail("inproc", std::to_string(bad) + " replies not ok");
  }
  tc::traceSetEnabled(false);

  // --- oracle: the final epoch equals a fresh batch replay of the op log ----
  Netlist fresh = base;
  for (const EcoOp& op : log) fresh.setMillerOverride(op.target, op.dblArg);
  auto tip = server->design("d")->current();
  bool same = tip->opsApplied() == log.size();
  for (std::size_t s = 0; same && s < scenarios.size(); ++s) {
    StaEngine ref(fresh, scenarios[s]);
    ref.run();
    same = sameTiming(ref, tip->engine(s));
  }
  rec.attempt("oracle", same);
  if (!same) rec.fail("oracle", "final epoch differs from a batch replay");
  tip.reset();
  server->stop();
}

}  // namespace cb
