// The two serving workloads: an in-process serve::Server (2 workers,
// unbounded artifact budget) over the example catalog, driven through its
// real semap.rpc.v1 unix-socket path.
//
// The server's journal is a real file, but its Sync calls are counted
// rather than flushed to the device (NoFlushEnv says why). Requests
// round-robin the scenarios. A seeded deck fixes the class mix exactly:
//   hit    — fresh id, cached result body; the server journals (and
//            syncs) the new response before sending it;
//   replay — an id answered during set-up; the journaled bytes come
//            back with no write;
//   miss   — "cache":"bypass": the full discovery pipeline runs on the
//            supervisor, then the result and the response are journaled.
//
// serve-closed (gated): one client sends its next request as soon as the
// last one is answered, for the whole run. Latency is the client's round
// trip. The server keeps every journaled id in memory, so it is
// restarted over a fresh journal every kRequestsPerServer requests (the
// restart is not timed): memory then tracks the work per server, not the
// length of the run. The process is pinned to one CPU that an idle
// spinner keeps busy (IdleSpinner says why).
//
// serve-openloop (runnable, not gated): requests are due on a fixed
// schedule (one every 1/rate seconds). At most kMaxClients client threads
// take the next due request whenever they are free, so a stall shows up
// as generator lateness, and every latency is measured from the request's
// due time. Two fixed offered rates (WORKLOADS.md records how they were
// derived from the knee at seed): the nominal rate gives the latency
// metrics, the overload rate gives goodput — ok responses within
// kLatencyLimitMs of their due time, per second. At the overload rate a
// request that finds no free client within kAbandonLatenessMs of its due
// time is shed by the generator as a timeout: the client's connection
// pool is full. On the shared host its latencies and goodput moved far
// more between runs of the same code than any useful bound
// (WORKLOADS.md has the numbers and the causes).
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "perfbench.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "store/env.h"
#include "util/diag.h"
#include "validate/scenario_loader.h"

namespace perfbench {
namespace {

using semap::Result;

constexpr double kNominalQps = 400;
constexpr double kOverloadQps = 1200;
constexpr double kLatencyLimitMs = 20;
constexpr double kAbandonLatenessMs = 1;
constexpr unsigned kMaxClients = 4;
constexpr int64_t kRequestsPerServer = 10000;
constexpr size_t kWorkers = 2;
// Restarts per run after the first set-up; setup_s is their median.
constexpr int kSetupRepeats = 21;
constexpr int kReplayIdsPerScenario = 4;

enum Class { kHit = 0, kReplay = 1, kMiss = 2 };
constexpr const char* kClassNames[] = {"hit", "replay", "miss"};
// The class mix as a deck, reshuffled (seeded) for every deck's worth of
// requests. The open loop sends 6 hit : 3 replay : 1 miss. The closed
// loop sends 13 : 6 : 1, so that its gated quantiles fall inside a
// class rather than on the edge between two: p50 and p90 among the hits,
// p99 among the misses, below the misses' slow tail (WORKLOADS.md).
const std::vector<Class> kOpenDeck = {kHit, kHit,    kHit,    kHit,    kHit,
                                      kHit, kReplay, kReplay, kReplay, kMiss};
const std::vector<Class> kClosedDeck = [] {
  std::vector<Class> deck(13, kHit);
  deck.insert(deck.end(), 6, kReplay);
  deck.push_back(kMiss);
  return deck;
}();

/// What request slot `k` of a schedule sends: its class, and which
/// set-up id a replay repeats.
struct Slot {
  Class cls;
  int replay_id;
};

Slot SlotAt(const std::vector<Class>& deck, uint64_t seed, uint64_t salt,
            int64_t k) {
  const int64_t size = static_cast<int64_t>(deck.size());
  std::mt19937_64 rng(seed * 1000003 + salt * 7919 +
                      static_cast<uint64_t>(k / size));
  std::vector<Class> shuffled = deck;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (int64_t i = 0; i < k % size; ++i) rng();
  return {shuffled[k % size], static_cast<int>(rng() % kReplayIdsPerScenario)};
}

/// The server_timing echo of a traced response, in ms (-1 = absent).
struct ServerTiming {
  double queue = -1, compile = -1, pipeline = -1, journal = -1, handle = -1;
};

/// One sent request. Kept small, and in a deque rather than a vector:
/// a run holds one per request, and their memory counts in peak_rss_mb.
struct Sample {
  Class cls = kHit;
  bool traced = false;
  bool ok = false;
  float latency_ms = 0;   // open loop: due time -> response read;
                          // closed loop: request sent -> response read
  float lateness_ms = 0;  // due time -> request sent (open loop)
  float client_ms = 0;    // request sent -> response read
};

/// A traced ok request's client time and server_timing echo.
struct TracedTiming {
  float client_ms = 0;
  ServerTiming timing;
};

/// What one client thread recorded.
struct ClientLog {
  std::deque<Sample> samples;
  std::vector<TracedTiming> timings;
};

/// Sent requests and their accounting, per phase or per run.
struct PhaseResult {
  double rate = 0;
  double duration_s = 0;
  std::deque<Sample> samples;  // sent requests
  std::vector<TracedTiming> timings;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t timeouts = 0;  // abandoned before sending

  int64_t Good() const {
    int64_t good = 0;
    for (const Sample& s : samples) {
      if (s.ok && s.latency_ms <= kLatencyLimitMs) ++good;
    }
    return good;
  }

  void Add(const ClientLog& log) {
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    timings.insert(timings.end(), log.timings.begin(), log.timings.end());
  }
};

std::string JournalPath(const Options& opts) {
  return opts.work_dir + "/serve.journal";
}

std::vector<std::string> ScenarioNames(const std::string& catalog_dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(catalog_dir, ec)) {
    if (entry.is_directory()) out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double ExtractMs(const std::string& timing, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = timing.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtod(timing.c_str() + pos + needle.size(), nullptr) / 1e6;
}

/// One parsed response envelope.
struct Reply {
  bool transport_ok = false;
  std::string status;  // ok | reject | error
  std::string body;    // the final "body" member, verbatim
  ServerTiming timing;
};

Reply RoundTrip(const std::string& socket, const std::string& payload) {
  Reply reply;
  semap::serve::SocketOptions socket_opts;
  socket_opts.io_timeout_ms = 10000;
  auto conn = semap::serve::DialUnix(socket, socket_opts);
  if (!conn.ok()) return reply;
  std::string frame;
  if (semap::serve::WriteFrame(**conn, payload).ok()) {
    if (auto read = semap::serve::ReadFrame(**conn); read.ok()) {
      frame = std::move(*read);
      reply.transport_ok = true;
    }
  }
  (void)(*conn)->Close();
  if (!reply.transport_ok) return reply;
  const size_t status = frame.find("\"status\":\"");
  if (status != std::string::npos) {
    const size_t begin = status + 10;
    reply.status = frame.substr(begin, frame.find('"', begin) - begin);
  }
  // "body" is always the envelope's last member.
  const size_t body = frame.find(",\"body\":");
  if (body != std::string::npos && frame.size() >= body + 9) {
    reply.body = frame.substr(body + 8, frame.size() - body - 9);
  }
  const size_t timing = frame.find("\"server_timing\":{");
  if (timing != std::string::npos && timing < body) {
    const std::string t = frame.substr(timing, frame.find('}', timing) - timing);
    reply.timing = {ExtractMs(t, "queue_ns"), ExtractMs(t, "compile_ns"),
                    ExtractMs(t, "pipeline_ns"), ExtractMs(t, "journal_ns"),
                    ExtractMs(t, "handle_ns")};
  }
  return reply;
}

std::string Payload(const std::string& id, const std::string& scenario,
                    bool bypass, const std::string& trace_id) {
  std::string out = "{\"id\":\"" + id + "\",\"op\":\"map\",\"scenario\":\"" +
                    scenario + "\"";
  if (bypass) out += ",\"cache\":\"bypass\"";
  if (!trace_id.empty()) out += ",\"trace_id\":\"" + trace_id + "\"";
  return out + "}";
}

/// Journal I/O the server issued, as counted by NoFlushEnv.
struct StoreIo {
  int64_t syncs = 0;
  int64_t bytes_written = 0;
};

/// The server's store Env: opens, writes, renames and reads are the real
/// POSIX calls, but Sync is counted and returns without flushing the
/// device. On a shared virtual disk a flush takes as long as the other
/// tenants' I/O makes it: with it, serve-closed's p90 and p99 spread
/// 0.34–0.61 between runs of the same code; without it, 0.03–0.06 in the
/// same hour (WORKLOADS.md). The journal's own work is still timed, and
/// a change in how often it syncs shows in store.syncs_per_request.
class NoFlushEnv : public semap::store::Env {
 public:
  Result<std::unique_ptr<semap::store::File>> OpenAppend(
      const std::string& path) override {
    return Wrap(base_->OpenAppend(path));
  }
  Result<std::unique_ptr<semap::store::File>> OpenTrunc(
      const std::string& path) override {
    return Wrap(base_->OpenTrunc(path));
  }
  semap::Status Rename(const std::string& from,
                       const std::string& to) override {
    return base_->Rename(from, to);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  semap::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }

  StoreIo io() const { return {syncs_.load(), bytes_written_.load()}; }

 private:
  class File : public semap::store::File {
   public:
    File(std::unique_ptr<semap::store::File> file, NoFlushEnv* env)
        : file_(std::move(file)), env_(env) {}
    semap::Status Write(std::string_view data) override {
      env_->bytes_written_.fetch_add(static_cast<int64_t>(data.size()));
      return file_->Write(data);
    }
    semap::Status Sync() override {
      env_->syncs_.fetch_add(1);
      return semap::Status::OK();
    }
    semap::Status Close() override { return file_->Close(); }

   private:
    std::unique_ptr<semap::store::File> file_;
    NoFlushEnv* env_;
  };

  Result<std::unique_ptr<semap::store::File>> Wrap(
      Result<std::unique_ptr<semap::store::File>> file) {
    if (!file.ok()) return file.status();
    return std::unique_ptr<semap::store::File>(
        std::make_unique<File>(std::move(*file), this));
  }

  semap::store::Env* const base_ = semap::store::Env::Default();
  std::atomic<int64_t> syncs_{0};
  std::atomic<int64_t> bytes_written_{0};
};

/// A started server plus the thread running its accept loop.
class RunningServer {
 public:
  RunningServer() = default;
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() { Stop(); }

  semap::Status Start(semap::serve::ServerOptions opts) {
    socket_ = opts.unix_path;
    auto server = semap::serve::Server::Start(std::move(opts));
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    thread_ = std::thread([this] {
      const semap::Status served = server_->Serve(stop_);
      if (!served.ok()) {
        std::fprintf(stderr, "perfbench: serve loop failed: %s\n",
                     served.ToString().c_str());
      }
    });
    return semap::Status::OK();
  }

  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    server_.reset();
  }

  semap::serve::Server& server() { return *server_; }
  const std::string& socket() const { return socket_; }

 private:
  std::unique_ptr<semap::serve::Server> server_;
  std::atomic<bool> stop_{false};
  std::string socket_;
  std::thread thread_;
};

/// What set-up leaves behind for the measured phases.
struct Fixture {
  std::vector<std::string> scenarios;
  std::map<std::string, std::string> reference;  // scenario -> ok body
  NoFlushEnv store_env;  // outlives every server below
  std::unique_ptr<RunningServer> server;
};

/// Load the catalog scenarios, start the server over the run's journal
/// and warm it up. Over a fresh journal this computes every result and
/// journals the replay ids; over an existing one it is a restart, as a
/// daemon restart would be. Each scenario's ok body must match the digest
/// recorded at seed, and becomes the reference every later response is
/// compared with.
bool SetUpOnce(const Options& opts, int repeat, DigestBook& digests,
               Fixture* fx, double* load_ms, double* start_ms,
               std::string* why) {
  Clock::time_point t = Clock::now();
  for (const std::string& name : fx->scenarios) {
    const std::string dir = opts.catalog_dir + "/" + name + "/";
    semap::validate::ScenarioTexts texts;
    semap::validate::ArtifactText* parts[] = {
        &texts.source_schema, &texts.source_cm, &texts.source_sem,
        &texts.target_schema, &texts.target_cm, &texts.target_sem,
        &texts.correspondences};
    const char* files[] = {"source.schema", "source.cm",  "source.sem",
                           "target.schema", "target.cm",  "target.sem",
                           "correspondences.txt"};
    for (int i = 0; i < 7; ++i) parts[i]->text = ReadText(dir + files[i]);
    semap::DiagnosticSink sink;
    if (!semap::validate::LoadScenario(texts, sink).ok()) {
      *why = "LoadScenario failed for " + name;
      return false;
    }
  }
  *load_ms = MsSince(t);

  t = Clock::now();
  semap::serve::ServerOptions server_opts;
  server_opts.catalog_dir = opts.catalog_dir;
  // A unix socket, relative to the working directory: the benchmark
  // writes only inside its checkout, and a relative path stays within
  // sun_path's length limit wherever the checkout lives. (Loopback TCP
  // would also leave tens of thousands of TIME_WAIT ports behind a run
  // and slow the next run's connects.)
  server_opts.unix_path = opts.work_dir + "/serve.sock";
  server_opts.workers = kWorkers;
  server_opts.cache_budget_bytes = 0;
  server_opts.store_path = JournalPath(opts);
  server_opts.io_env = &fx->store_env;
  fx->server = std::make_unique<RunningServer>();
  if (semap::Status s = fx->server->Start(std::move(server_opts)); !s.ok()) {
    *why = "server start: " + s.ToString();
    return false;
  }
  *start_ms = MsSince(t);

  const std::string& socket = fx->server->socket();
  for (const std::string& name : fx->scenarios) {
    Reply r = RoundTrip(
        socket,
        Payload("warm-" + std::to_string(repeat) + "-" + name, name, false, ""));
    if (r.status != "ok") {
      *why = "warm-up request for " + name + " not ok";
      return false;
    }
    if (!digests.Check("serve/map/" + name, r.body, why)) return false;
    fx->reference[name] = r.body;
    for (int j = 0; j < kReplayIdsPerScenario; ++j) {
      const std::string id = "replay-" + name + "-" + std::to_string(j);
      r = RoundTrip(socket, Payload(id, name, false, ""));
      if (r.status != "ok" || r.body != fx->reference[name]) {
        *why = "warm-up replay id " + id + " not ok";
        return false;
      }
    }
  }
  return true;
}

/// Send slot `k`'s request and wait for its reply. A request with a
/// non-null `spans` is traced: it carries a trace_id, its request span,
/// with the echoed server stages as attributes, is filed there, and its
/// server_timing goes to `log`. Counts the operation in `report`; a
/// reject is a failed operation only when `rejects_fail`.
Sample Exchange(const Fixture& fx, const std::string& tag, int64_t k,
                const Slot& slot, SpanLog* spans, bool rejects_fail,
                std::atomic<int64_t>* rejected, std::atomic<int64_t>* errors,
                Report& report, ClientLog* log) {
  Sample s;
  s.cls = slot.cls;
  s.traced = spans != nullptr;
  const std::string& scenario = fx.scenarios[k % fx.scenarios.size()];
  std::string id = tag + "-" + std::to_string(k);
  if (s.cls == kReplay) {
    id = "replay-" + scenario + "-" + std::to_string(slot.replay_id);
  }
  // Untraced, the tracer stays unused and the span is inert.
  semap::obs::Tracer tracer;
  const int64_t offset_ns = s.traced ? spans->NowNs() : 0;
  const Clock::time_point sent = Clock::now();
  semap::obs::Span span =
      semap::obs::StartSpan(s.traced ? &tracer : nullptr, "request");
  const Reply r = RoundTrip(fx.server->socket(),
                            Payload(id, scenario, s.cls == kMiss,
                                    s.traced ? "pb-" + id : ""));
  s.client_ms = static_cast<float>(MsSince(sent));
  // The server's stages arrive as the echoed server_timing; they are
  // attributes of the client-side span.
  const std::pair<const char*, double> stages[] = {
      {"queue_us", r.timing.queue},
      {"compile_us", r.timing.compile},
      {"pipeline_us", r.timing.pipeline},
      {"journal_us", r.timing.journal},
      {"handle_us", r.timing.handle}};
  for (const auto& [key, ms] : stages) {
    if (ms >= 0) span.AddAttr(key, static_cast<int64_t>(ms * 1000));
  }
  span.End();
  if (s.traced) spans->Add(k, kClassNames[s.cls], tracer, offset_ns);
  s.ok = r.status == "ok" && r.body == fx.reference.at(scenario);
  if (s.traced && s.ok && r.timing.handle >= 0) {
    log->timings.push_back({s.client_ms, r.timing});
  }
  if (r.status == "reject") {
    rejected->fetch_add(1);
    if (rejects_fail) report.Op(false, id + ": rejected");
  } else if (!s.ok) {
    errors->fetch_add(1);
    report.Op(false, id + ": " +
                         (r.status.empty() ? "transport failure"
                                           : "status " + r.status +
                                                 " or body mismatch"));
  } else {
    report.Op(true);
  }
  return s;
}

/// One open-loop phase at `rate` for `duration_s`.
/// With `trace_odd`, odd slots carry a trace_id and their request spans
/// are filed there. With `abandon_late`, a request that finds no free
/// client within kAbandonLatenessMs of its due time is a timeout.
PhaseResult RunPhase(const Fixture& fx, const Options& opts,
                     const std::string& tag, double rate, double duration_s,
                     SpanLog* trace_odd, bool abandon_late, Report& report,
                     bool count_rejects_as_failed) {
  PhaseResult result;
  result.rate = rate;
  result.duration_s = duration_s;
  const int64_t slots = static_cast<int64_t>(rate * duration_s);
  const unsigned clients =
      std::max(1u, std::min(kMaxClients, std::thread::hardware_concurrency()));
  std::vector<ClientLog> per_client(clients);
  std::atomic<int64_t> next{0}, rejected{0}, errors{0}, timeouts{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const int64_t k = next.fetch_add(1);
        if (k >= slots) break;
        const Slot slot =
            SlotAt(kOpenDeck, opts.seed, static_cast<uint64_t>(rate), k);
        const Clock::time_point due =
            t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                     1e9 * static_cast<double>(k) / rate));
        std::this_thread::sleep_until(due);
        const double lateness_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        if (abandon_late && lateness_ms > kAbandonLatenessMs) {
          timeouts.fetch_add(1);
          continue;
        }
        Sample s = Exchange(fx, tag, k, slot,
                            k % 2 == 1 ? trace_odd : nullptr,
                            count_rejects_as_failed, &rejected, &errors,
                            report, &per_client[c]);
        s.lateness_ms = static_cast<float>(lateness_ms);
        s.latency_ms = static_cast<float>(
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
        per_client[c].samples.push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ClientLog& log : per_client) result.Add(log);
  result.rejected = rejected.load();
  result.errors = errors.load();
  result.timeouts = timeouts.load();
  return result;
}

std::vector<double> Latencies(const PhaseResult& phase, int cls, bool traced) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.ok && s.traced == traced && (cls < 0 || s.cls == cls)) {
      out.push_back(s.latency_ms);
    }
  }
  return out;
}

std::string PhaseJson(const PhaseResult& p) {
  std::vector<double> lateness, ok_latency;
  int64_t ok = 0;
  for (const Sample& s : p.samples) {
    lateness.push_back(s.lateness_ms);
    if (s.ok) {
      ++ok;
      ok_latency.push_back(s.latency_ms);
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"offered_qps\":%.1f,\"seconds\":%.2f,\"sent\":%zu,"
                "\"ok\":%lld,\"rejected\":%lld,\"errors\":%lld,"
                "\"timeouts\":%lld,\"goodput_qps\":%.2f,"
                "\"latency_ms_p50\":%.3f,\"latency_ms_p99\":%.3f,"
                "\"lateness_ms_p99\":%.3f}",
                p.rate, p.duration_s, p.samples.size(),
                static_cast<long long>(ok), static_cast<long long>(p.rejected),
                static_cast<long long>(p.errors),
                static_cast<long long>(p.timeouts),
                static_cast<double>(p.Good()) / p.duration_s,
                Median(ok_latency), Quantile(ok_latency, 0.99),
                Quantile(lateness, 0.99));
  return buf;
}

/// Remove the run's journal, then set up a server over it: every
/// scenario's result is computed and journaled, with the replay ids.
bool StartFresh(const Options& opts, DigestBook& digests, Fixture* fx,
                std::string* why) {
  if (fx->server != nullptr) fx->server->Stop();
  fx->reference.clear();
  std::error_code ec;
  std::filesystem::remove(JournalPath(opts), ec);
  double load = 0, start = 0;
  return SetUpOnce(opts, 0, digests, fx, &load, &start, why);
}

/// Set-up shared by both serving workloads: a fresh server, then
/// kSetupRepeats restarts over its journal, as a daemon restart would.
/// setup_s and the set-up layers are the restarts' medians.
bool SetUpServing(const Options& opts, DigestBook& digests, Fixture* fx,
                  Report& report) {
  fx->scenarios = ScenarioNames(opts.catalog_dir);
  if (fx->scenarios.empty() || !digests.loaded()) {
    std::fprintf(stderr, "perfbench: no scenarios in %s or no digests\n",
                 opts.catalog_dir.c_str());
    return false;
  }
  std::string why;
  Clock::time_point t = Clock::now();
  if (!StartFresh(opts, digests, fx, &why)) {
    std::fprintf(stderr, "perfbench: serve set-up failed: %s\n", why.c_str());
    return false;
  }
  report.Detail("first_setup_s", std::to_string(MsSince(t) / 1000.0));
  std::vector<double> setup_s, load_ms, start_ms;
  for (int i = 1; i <= kSetupRepeats; ++i) {
    fx->server->Stop();
    fx->reference.clear();
    t = Clock::now();
    double load = 0, start = 0;
    if (!SetUpOnce(opts, i, digests, fx, &load, &start, &why)) {
      std::fprintf(stderr, "perfbench: serve set-up failed: %s\n",
                   why.c_str());
      return false;
    }
    setup_s.push_back(MsSince(t) / 1000.0);
    load_ms.push_back(load);
    start_ms.push_back(start);
  }
  report.Set("setup_s", Median(setup_s), "s");
  SetSetupLayers(report, {}, load_ms, start_ms);
  // Every digest is checked (or recorded) during set-up.
  return !digests.recording() || digests.Save();
}

/// Per-class latency metrics of a run's untraced ok requests.
void SetClassLatencies(Report& report, const PhaseResult& p) {
  report.Set("serve.hit_ms.p50", Median(Latencies(p, kHit, false)), "ms");
  report.Set("serve.hit_ms.p99", Quantile(Latencies(p, kHit, false), 0.99),
             "ms");
  report.Set("serve.miss_ms.p50", Median(Latencies(p, kMiss, false)), "ms");
  report.Set("serve.miss_ms.p99", Quantile(Latencies(p, kMiss, false), 0.99),
             "ms");
  report.Set("serve.replay_ms.p50", Median(Latencies(p, kReplay, false)),
             "ms");
}

/// The serving layers, from the traced requests' server_timing echo, the
/// server's stats counters before and after the measured requests, and
/// the journal I/O `io` those requests issued. A workload that serves
/// nothing passes no samples and reads 0. A replayed id returns its
/// original (untraced) envelope, so replays carry no server_timing.
void SetServeLayers(Report& report, const PhaseResult& p,
                    const semap::serve::ServerStatsSnapshot& before,
                    const semap::serve::ServerStatsSnapshot& after,
                    const StoreIo& io) {
  std::vector<double> queue, compile, pipeline, journal, handle, transport,
      traced_hits, plain_hits;
  for (const Sample& s : p.samples) {
    if (s.ok && s.cls == kHit) {
      (s.traced ? traced_hits : plain_hits).push_back(s.client_ms);
    }
  }
  for (const TracedTiming& t : p.timings) {
    if (t.timing.queue >= 0) queue.push_back(t.timing.queue);
    if (t.timing.compile >= 0) compile.push_back(t.timing.compile);
    if (t.timing.pipeline >= 0) pipeline.push_back(t.timing.pipeline);
    if (t.timing.journal >= 0) journal.push_back(t.timing.journal);
    handle.push_back(t.timing.handle);
    transport.push_back(t.client_ms - t.timing.handle);
  }
  report.Set("layer.serve.queue_ms.p50", Median(queue), "ms");
  report.Set("layer.serve.queue_ms.p99", Quantile(queue, 0.99), "ms");
  report.Set("layer.serve.compile_ms.p50", Median(compile), "ms");
  report.Set("layer.serve.pipeline_ms.p50", Median(pipeline), "ms");
  report.Set("layer.serve.pipeline_ms.p99", Quantile(pipeline, 0.99), "ms");
  report.Set("layer.store.journal_ms.p50", Median(journal), "ms");
  report.Set("layer.store.journal_ms.p99", Quantile(journal, 0.99), "ms");
  report.Set("layer.serve.handle_ms.p50", Median(handle), "ms");
  report.Set("layer.client.transport_ms.p50", Median(transport), "ms");
  auto delta = [](uint64_t after_value, uint64_t before_value) {
    return static_cast<double>(after_value - before_value);
  };
  report.Set("serve.cache_hits", delta(after.cache_hits, before.cache_hits),
             "count");
  report.Set("serve.singleflight_followers",
             delta(after.singleflight_followers, before.singleflight_followers),
             "count");
  report.Set("serve.shed", delta(after.shed, before.shed), "count");
  report.Set("serve.deadline_shed",
             delta(after.deadline_shed, before.deadline_shed), "count");
  const double requests =
      static_cast<double>(std::max<size_t>(p.samples.size(), 1));
  report.Set("store.syncs_per_request", io.syncs / requests, "count");
  report.Set("store.bytes_written_per_request", io.bytes_written / requests,
             "B");
  if (!traced_hits.empty() && !plain_hits.empty()) {
    report.Set("layer.obs.tracing_overhead_pct",
               (Median(traced_hits) / Median(plain_hits) - 1.0) * 100.0, "%");
  }
}

void FinishServeTrace(const Options& opts, const SpanLog& spans,
                      Report& report) {
  const std::string path =
      opts.work_dir + "/spans-" + opts.workload + ".ndjson";
  if (spans.WriteNdjson(path)) report.Detail("span_dump", "\"" + path + "\"");
}

/// Pin this thread, and every thread it starts from now on, to one of
/// the CPUs it may run on: the client, the server's threads and the
/// spinner below then share that CPU.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

/// While alive, a SCHED_IDLE thread spins on the (pinned) CPU, which it
/// gets only when no other thread can run. The CPU then never idles
/// between the client's and the server's hand-offs, so a wake-up is a
/// context switch on a running CPU rather than a halted virtual CPU that
/// the host must schedule again — a delay set by the host's other load,
/// not by the program. If the thread cannot be made SCHED_IDLE it does
/// not spin: at normal priority it would take CPU time from the server.
class IdleSpinner {
 public:
  IdleSpinner()
      : thread_([this] {
          sched_param param{};
          if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
            std::fputs("perfbench: no SCHED_IDLE, not spinning\n", stderr);
            return;
          }
          while (!stop_.load(std::memory_order_relaxed)) {
          }
        }) {}
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;
  ~IdleSpinner() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

void SetNoServeLayers(Report& report) {
  SetServeLayers(report, PhaseResult{}, {}, {}, {});
}

bool RunServeClosed(const Options& opts, Report& report) {
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return false;
  }
  IdleSpinner spinner;
  DigestBook digests(opts);
  Fixture fx;
  if (!SetUpServing(opts, digests, &fx, report)) return false;

  // Whole segments of kRequestsPerServer requests, each against a server
  // over a fresh journal, until the run time is used up. Only the
  // segments' request loops are timed. Each segment's throughput and
  // latency quantiles are computed on their own; the run reports their
  // medians, so a few seconds in which the host is slow do not move them.
  // The stats counters are summed over the segments.
  SpanLog spans;
  PhaseResult run;
  semap::serve::ServerStatsSnapshot before_sum, after_sum;
  StoreIo io;
  std::atomic<int64_t> rejected{0}, errors{0};
  std::vector<double> seg_per_s, seg_p50, seg_p90, seg_p99;
  double measured_ms = 0;
  int64_t k = 0;
  while (measured_ms < opts.seconds * 1000.0) {
    if (!seg_per_s.empty()) {
      std::string why;
      if (!StartFresh(opts, digests, &fx, &why)) {
        std::fprintf(stderr, "perfbench: serve restart failed: %s\n",
                     why.c_str());
        return false;
      }
    }
    const semap::serve::ServerStatsSnapshot before =
        fx.server->server().stats();
    const StoreIo io_before = fx.store_env.io();
    PhaseResult segment;
    ClientLog log;
    const Clock::time_point t0 = Clock::now();
    for (const int64_t end = k + kRequestsPerServer; k < end; ++k) {
      Sample s = Exchange(fx, "run", k, SlotAt(kClosedDeck, opts.seed, 0, k),
                          opts.trace && k % 2 == 1 ? &spans : nullptr, true,
                          &rejected, &errors, report, &log);
      s.latency_ms = s.client_ms;
      log.samples.push_back(s);
    }
    const double segment_ms = MsSince(t0);
    measured_ms += segment_ms;
    const semap::serve::ServerStatsSnapshot after =
        fx.server->server().stats();
    const StoreIo io_after = fx.store_env.io();
    io.syncs += io_after.syncs - io_before.syncs;
    io.bytes_written += io_after.bytes_written - io_before.bytes_written;
    for (auto [sum, snap] : {std::pair{&before_sum, &before},
                             std::pair{&after_sum, &after}}) {
      sum->cache_hits += snap->cache_hits;
      sum->singleflight_followers += snap->singleflight_followers;
      sum->shed += snap->shed;
      sum->deadline_shed += snap->deadline_shed;
    }
    segment.Add(log);
    int64_t ok = 0;
    for (const Sample& s : segment.samples) ok += s.ok ? 1 : 0;
    const std::vector<double> latencies = Latencies(segment, -1, false);
    seg_per_s.push_back(static_cast<double>(ok) / (segment_ms / 1000.0));
    seg_p50.push_back(Median(latencies));
    seg_p90.push_back(Quantile(latencies, 0.90));
    seg_p99.push_back(Quantile(latencies, 0.99));
    run.Add(log);
  }
  // Before the statistics below allocate: peak_rss_mb is the high-water
  // mark of set-up and the measured requests.
  const double peak_rss_mb = PeakRssMb();
  fx.server->Stop();
  std::error_code ec;
  std::filesystem::remove(JournalPath(opts), ec);
  run.duration_s = measured_ms / 1000.0;
  run.rejected = rejected.load();
  run.errors = errors.load();

  SetClassLatencies(report, run);
  report.Set("throughput_per_s", Median(seg_per_s), "1/s");
  report.Set("op_ms.p50", Median(seg_p50), "ms");
  report.Set("op_ms.p90", Median(seg_p90), "ms");
  report.Set("op_ms.p99", Median(seg_p99), "ms");
  report.Set("peak_rss_mb", peak_rss_mb, "MB");
  report.Detail("run", PhaseJson(run));
  report.Detail("servers", std::to_string(seg_per_s.size()));
  if (!opts.trace) return true;
  SetNoGenerationLayers(report);
  SetNoEvalLayers(opts, report);
  SetServeLayers(report, run, before_sum, after_sum, io);
  FinishServeTrace(opts, spans, report);
  return true;
}

bool RunServeOpenLoop(const Options& opts, Report& report) {
  DigestBook digests(opts);
  Fixture fx;
  if (!SetUpServing(opts, digests, &fx, report)) return false;
  std::error_code ec;

  if (!opts.knee_sweep.empty()) {
    std::string rows = "[";
    for (double rate : opts.knee_sweep) {
      PhaseResult p =
          RunPhase(fx, opts, "knee" + std::to_string(static_cast<int>(rate)),
                   rate, opts.seconds, nullptr, true, report, false);
      if (rows.size() > 1) rows += ",";
      rows += PhaseJson(p);
    }
    report.Detail("knee_sweep", rows + "]");
    fx.server->Stop();
    std::filesystem::remove(JournalPath(opts), ec);
    return true;
  }

  // The nominal rate gives the latency metrics, the overload rate the
  // goodput. A traced run sends a trace_id on every other nominal request.
  SpanLog spans;
  const semap::serve::ServerStatsSnapshot before = fx.server->server().stats();
  const StoreIo io_before = fx.store_env.io();
  PhaseResult nominal =
      RunPhase(fx, opts, "nom", kNominalQps, opts.seconds / 2,
               opts.trace ? &spans : nullptr, false, report, true);
  const StoreIo io_after = fx.store_env.io();
  PhaseResult overload = RunPhase(fx, opts, "ovl", kOverloadQps,
                                  opts.seconds / 2, nullptr, true, report,
                                  false);
  const semap::serve::ServerStatsSnapshot after = fx.server->server().stats();
  fx.server->Stop();
  std::filesystem::remove(JournalPath(opts), ec);

  const double goodput =
      static_cast<double>(overload.Good()) / overload.duration_s;
  report.Set("throughput_per_s", goodput, "1/s");
  report.Set("serve.goodput_qps", goodput, "1/s");
  const std::vector<double> all = Latencies(nominal, -1, false);
  report.Set("op_ms.p50", Median(all), "ms");
  report.Set("op_ms.p90", Quantile(all, 0.90), "ms");
  report.Set("op_ms.p99", Quantile(all, 0.99), "ms");
  SetClassLatencies(report, nominal);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Detail("nominal", PhaseJson(nominal));
  report.Detail("overload", PhaseJson(overload));
  report.Detail("latency_limit_ms", std::to_string(kLatencyLimitMs));
  if (!opts.trace) return true;

  std::vector<double> lateness;
  for (const Sample& s : nominal.samples) lateness.push_back(s.lateness_ms);
  report.Set("gen.lateness_ms.p99", Quantile(lateness, 0.99), "ms");
  SetNoGenerationLayers(report);
  SetNoEvalLayers(opts, report);
  SetServeLayers(report, nominal, before, after,
                 {io_after.syncs - io_before.syncs,
                  io_after.bytes_written - io_before.bytes_written});
  FinishServeTrace(opts, spans, report);
  return true;
}

}  // namespace perfbench
