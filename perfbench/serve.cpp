// `serve` workload: an open loop from one process against a tml_serve
// daemon the benchmark starts. A Zipf-skewed catalog of small tml_gen
// models, larger than the daemon's cache, is requested at a few fixed
// rates; periodic bursts ask for one never-seen model on every connection
// at once; a share of requests asks for the quotient.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "perfbench/common.hpp"
#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/common/rng.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/serve/json.hpp"

namespace perfbench {
namespace {

using namespace tml;

constexpr std::size_t kCatalog = 32;    ///< models in the catalog
constexpr std::size_t kCache = 16;      ///< daemon cache capacity (entries)
constexpr double kZipf = 2.0;           ///< popularity skew
constexpr std::size_t kQuotientEvery = 10;  ///< every 10th request
constexpr std::int64_t kLimitMs = 250;  ///< latency limit = request timeout
constexpr double kNominalRps = 100;
const double kLadderRps[] = {100, 200, 400, 800};
constexpr double kBurstPeriodS = 0.5;
constexpr std::size_t kClosedRequests = 1600;
constexpr double kGridHazard = 0.05;  ///< seeded layouts, so seeds differ

// ---- catalog -------------------------------------------------------------

struct Model {
  std::string path;
  std::string formula;
  std::string line[2];  ///< encoded request, without / with quotient
  double reference[2] = {0, 0};
};

/// Rank r of the catalog: the family cycles grid/queue/WSN and the size
/// class ~400/1600/100/400 states every three ranks, so popularity and size
/// do not depend on the seed; the seed picks hazard layouts, queue rates and
/// WSN jitter. The most popular model (a 400-state grid) sets p50.
GeneratorSpec catalog_spec(std::size_t r, std::uint64_t seed) {
  static const std::size_t kGrid[] = {20, 40, 10, 20};
  static const std::size_t kQueue[] = {19, 39, 9, 19};
  static const std::size_t kWsn[] = {44, 177, 11, 44};
  const std::size_t size_class = (r / 3) % 4;
  GeneratorSpec spec;
  spec.seed = seed * 1000003u + r;
  switch (r % 3) {
    case 0:
      spec.family = GeneratorFamily::kGridRobot;
      spec.size = kGrid[size_class];
      spec.hazard_density = kGridHazard;
      break;
    case 1:
      spec.family = GeneratorFamily::kQueueMesh;
      spec.size = kQueue[size_class];
      break;
    default:
      spec.family = GeneratorFamily::kWsnField;
      spec.size = kWsn[size_class];
      spec.jitter = 0.02;
      break;
  }
  return spec;
}

std::string catalog_formula(GeneratorFamily family) {
  switch (family) {
    case GeneratorFamily::kGridRobot: return "Pmax=? [ F<=200 \"goal\" ]";
    case GeneratorFamily::kQueueMesh: return "P=? [ F<=200 \"full\" ]";
    default: return "Pmax=? [ F<=64 \"delivered\" ]";
  }
}

/// In-process answer of the same model and formula, compiled the way the
/// daemon's cache compiles it.
double reference_value(const std::string& source, const std::string& formula,
                       bool quotient) {
  const PrismModel parsed = parse_prism(source);
  const CompiledModel model = parsed.type == PrismModel::Type::kDtmc
                                  ? compile(parsed.dtmc())
                                  : compile(parsed.mdp);
  CheckOptions options;
  options.threads = 1;
  options.quotient = quotient;
  return check(model, *parse_pctl(formula), options).value.value();
}

/// Generates one model to disk and encodes its request lines; `variants`
/// is 1 for plain requests only, 2 to also allow "quotient": true.
Model make_model(const std::string& path, const GeneratorSpec& spec,
                 int variants, double& generate_ms) {
  Model m;
  m.path = path;
  m.formula = catalog_formula(spec.family);
  const auto start = Clock::now();
  const std::string source = generate_prism(spec);
  generate_ms += ms_since(start);
  write_file(path, source);
  for (int q = 0; q < variants; ++q) {
    m.reference[q] = reference_value(source, m.formula, q == 1);
    Json::Object request;
    request["op"] = "check";
    request["model"] = source;
    request["formula"] = m.formula;
    request["timeout_ms"] = kLimitMs;
    if (q == 1) request["quotient"] = true;
    m.line[q] = Json(std::move(request)).dump() + "\n";
  }
  return m;
}

struct Catalog {
  std::vector<Model> models;  ///< popularity order
  std::vector<Model> fresh;   ///< never-seen models for the bursts
  std::vector<double> zipf_cdf;
};

Catalog make_catalog(const Args& args, std::size_t bursts, double& generate_ms) {
  Catalog c;
  for (std::size_t r = 0; r < kCatalog; ++r) {
    c.models.push_back(make_model(
        args.work_dir + "/catalog-" + std::to_string(r) + ".prism",
        catalog_spec(r, args.seed), 2, generate_ms));
  }
  for (std::size_t b = 0; b < bursts; ++b) {
    // A ~3,200-state hazard grid, twice the largest catalog model, with a
    // fresh layout each time: the stampedes are the slowest requests, so
    // p99 falls among them and every burst costs about the same.
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kGridRobot;
    spec.size = 57;
    spec.hazard_density = kGridHazard;
    spec.seed = (args.seed + 7919u) * 1000003u + b;
    c.fresh.push_back(make_model(
        args.work_dir + "/burst-" + std::to_string(b) + ".prism", spec, 1,
        generate_ms));
  }
  double total = 0;
  for (std::size_t r = 0; r < kCatalog; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipf);
    c.zipf_cdf.push_back(total);
  }
  for (double& p : c.zipf_cdf) p /= total;
  return c;
}

// ---- daemon and connections ---------------------------------------------

class Daemon {
 public:
  Daemon(const Args& args, std::size_t threads, bool traced) {
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    const std::vector<std::string> argv_s = {
        args.serve_bin, "--port", "0", "--cache", std::to_string(kCache),
        "--threads", "1", "--queue", "1024", "--max-connections", "64",
        "--default-timeout-ms", std::to_string(kLimitMs)};
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      setenv("TML_THREADS", std::to_string(threads).c_str(), 1);
      if (traced) {
        setenv("TML_STATS", "1", 1);
      } else {
        unsetenv("TML_STATS");
      }
      std::vector<char*> argv;
      for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    out_ = out[0];
    std::string banner;
    char ch = 0;
    while (read(out_, &ch, 1) == 1 && ch != '\n') banner += ch;
    const std::size_t colon = banner.rfind(':');
    if (banner.rfind("listening on", 0) != 0 || colon == std::string::npos) {
      stop();
      throw std::runtime_error("tml_serve did not start: '" + banner + "'");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(banner.substr(colon + 1)));
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// Graceful stop: SIGTERM drains, then the daemon exits; its remaining
  /// output is drained so it never blocks on a full pipe.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    char buffer[256];
    while (read(out_, buffer, sizeof(buffer)) > 0) {
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    close(out_);
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and returns the response line.
  std::string roundtrip(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string response = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    return response;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Json daemon_metrics(std::uint16_t port) {
  Connection conn(port);
  const Json response = Json::parse(conn.roundtrip("{\"op\":\"metrics\"}\n"));
  return *response.find("metrics");
}

StatsDelta metrics_delta(const Json& before, const Json& after) {
  StatsDelta d;
  for (const auto& [name, value] : after.find("counters")->as_object()) {
    const Json* old = before.find("counters")->find(name);
    d.counters[name] = value.as_number() - (old ? old->as_number() : 0.0);
  }
  for (const auto& [name, value] : after.find("gauges")->as_object()) {
    d.counters[name] = value.as_number();
  }
  for (const auto& [name, value] : after.find("timers")->as_object()) {
    const Json* old = before.find("timers")->find(name);
    d.timer_ms[name] = value.find("total_ms")->as_number() -
                       (old ? old->find("total_ms")->as_number() : 0.0);
  }
  return d;
}

// ---- load ------------------------------------------------------------------

struct Planned {
  double due_s = 0;     ///< offset from the start of the step
  const Model* model = nullptr;
  bool quotient = false;
};

struct Outcome {
  double rtt_ms = 0;       ///< send to response
  double latency_ms = 0;   ///< due time to response
  double lateness_ms = 0;  ///< due time to send
  double server_ms = 0;    ///< the response's time_ms
  bool ok = false;
  bool hit = false;
  bool wrong = false;
  const Model* model = nullptr;
};

/// Sends `plan` over `conns` connections; each free connection takes the
/// next request and sends it at its due time (open loop), or at once when
/// `closed` (back to back).
std::vector<Outcome> run_plan(std::uint16_t port, std::size_t conns,
                              const std::vector<Planned>& plan, bool closed) {
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t c = 0; c < conns; ++c) {
    connections.push_back(std::make_unique<Connection>(port));
  }
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  std::atomic<bool> broken{false};
  for (std::size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      try {
        for (std::size_t i = next++; i < plan.size(); i = next++) {
          const Planned& p = plan[i];
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(p.due_s));
          if (!closed) std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const std::string reply =
              connections[c]->roundtrip(p.model->line[p.quotient ? 1 : 0]);
          Outcome& o = outcomes[i];
          o.model = p.model;
          o.rtt_ms = ms_since(sent);
          o.latency_ms = closed ? o.rtt_ms : ms_since(due);
          o.lateness_ms =
              closed ? 0.0
                     : std::chrono::duration<double, std::milli>(sent - due)
                           .count();
          const Json r = Json::parse(reply);
          const Json* status = r.find("status");
          o.ok = status && status->as_string() == "ok";
          if (const Json* t = r.find("time_ms")) o.server_ms = t->as_number();
          if (const Json* cache = r.find("cache")) {
            o.hit = cache->as_string() == "hit";
          }
          if (o.ok) {
            const Json* value = r.find("value");
            o.wrong = !value ||
                      value->as_number() != p.model->reference[p.quotient ? 1 : 0];
          }
        }
      } catch (const std::exception&) {
        broken = true;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (broken) throw std::runtime_error("serve connection failed");
  return outcomes;
}

/// `n` catalog ranks whose counts follow the Zipf popularity exactly
/// (largest remainder), in an order shuffled by `rng`: the seed changes
/// which request comes when, not how many each model gets.
std::vector<std::size_t> zipf_sequence(const Catalog& c, std::size_t n,
                                       Rng& rng) {
  std::vector<std::size_t> count(kCatalog);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  double previous = 0;
  for (std::size_t r = 0; r < kCatalog; ++r) {
    const double exact = (c.zipf_cdf[r] - previous) * static_cast<double>(n);
    previous = c.zipf_cdf[r];
    count[r] = static_cast<std::size_t>(exact);
    assigned += count[r];
    remainder.push_back({exact - static_cast<double>(count[r]), r});
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) {
    ++count[remainder[k].second];
  }
  std::vector<std::size_t> ranks;
  for (std::size_t r = 0; r < kCatalog; ++r) ranks.insert(ranks.end(), count[r], r);
  for (std::size_t i = ranks.size(); i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.index(i)]);
  }
  return ranks;
}

/// Requests of one ladder step at `rps` for `seconds`. The nominal step
/// adds a burst of `conns - 1` (at least 2) simultaneous requests for a
/// never-seen model every kBurstPeriodS, so one connection stays free for
/// the regular traffic when there are more than two.
std::vector<Planned> plan_step(const Catalog& c, Rng& rng, double rps,
                               double seconds, std::size_t conns,
                               std::size_t& next_fresh) {
  const bool bursts = rps == kNominalRps;
  std::vector<Planned> plan;
  const std::size_t n = static_cast<std::size_t>(rps * seconds);
  const std::vector<std::size_t> ranks = zipf_sequence(c, n, rng);
  double next_burst = kBurstPeriodS / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const double due = static_cast<double>(i) / rps;
    if (bursts && due >= next_burst && next_fresh < c.fresh.size()) {
      for (std::size_t k = 0; k < std::max<std::size_t>(2, conns - 1); ++k) {
        plan.push_back({due, &c.fresh[next_fresh], false});
      }
      ++next_fresh;
      next_burst += kBurstPeriodS;
    }
    plan.push_back({due, &c.models[ranks[i]], (i + 1) % kQuotientEvery == 0});
  }
  return plan;
}

std::vector<Planned> plan_closed(const Catalog& c, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::size_t> ranks = zipf_sequence(c, kClosedRequests, rng);
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < kClosedRequests; ++i) {
    plan.push_back({0.0, &c.models[ranks[i]], (i + 1) % kQuotientEvery == 0});
  }
  return plan;
}

/// Every catalog model once, so the cache holds its steady-state contents.
void warm_up(std::uint16_t port, std::size_t conns, const Catalog& c) {
  std::vector<Planned> plan;
  for (std::size_t r = kCatalog; r-- > 0;) plan.push_back({0.0, &c.models[r]});
  run_plan(port, conns, plan, true);
}

struct StepStats {
  double rps = 0;
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::vector<double> latency;
  std::vector<double> lateness;
};

StepStats summarize(double rps, const std::vector<Outcome>& outcomes) {
  StepStats s;
  s.rps = rps;
  for (const Outcome& o : outcomes) {
    ++s.requests;
    const bool failed = !o.ok || o.wrong;
    if (failed) ++s.failed;
    if (o.wrong) ++s.wrong;
    // A failed request counts as missing the latency limit.
    s.latency.push_back(failed ? std::max(o.latency_ms, 2.0 * kLimitMs)
                               : o.latency_ms);
    s.lateness.push_back(o.lateness_ms);
  }
  return s;
}

void account(Result& result, const StepStats& s) {
  result.attempted += s.requests;
  result.failed += s.failed;
  if (s.wrong > 0) {
    result.wrong(std::to_string(s.wrong) +
                 " serve responses differ from the in-process check()");
  }
}

}  // namespace

Result run_serve(const Args& args, const Threads& threads) {
  Result result;
  const std::size_t conns = std::min<std::size_t>(threads.nproc, 4);
  const double ladder_s = std::max(1.0, args.seconds * 0.1);
  const double nominal_s = std::max(2.0, args.seconds * 0.7);
  const std::size_t bursts =
      static_cast<std::size_t>(nominal_s / kBurstPeriodS) + 1;

  // Set-up, several times: catalog generation with in-process references,
  // daemon start to first ping, cache warm-up. The last daemon is kept.
  std::vector<double> setup_s;
  double generate_ms = 0;
  Catalog catalog;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0, n = args.trace ? 1 : 3; i < n; ++i) {
    daemon.reset();
    generate_ms = 0;
    const auto start = Clock::now();
    catalog = make_catalog(args, bursts, generate_ms);
    daemon = std::make_unique<Daemon>(args, threads.nproc, false);
    Connection(daemon->port()).roundtrip("{\"op\":\"ping\"}\n");
    warm_up(daemon->port(), conns, catalog);
    setup_s.push_back(seconds_since(start));
  }

  // Closed passes: a fixed request list back to back on every connection.
  const std::vector<Planned> closed = plan_closed(catalog, args.seed);
  std::vector<double> pass_ms;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    const StepStats s = summarize(0, run_plan(daemon->port(), conns, closed, true));
    pass_ms.push_back(ms_since(start));
    account(result, s);
  }
  result.note("closed pass: " + std::to_string(kClosedRequests) +
              " requests on " + std::to_string(conns) + " connections, median " +
              num(median(pass_ms)) + " ms");

  Rng rng(args.seed ^ 0x5eed);
  std::size_t next_fresh = 0;
  if (args.trace) {
    // Same closed passes against a traced daemon give the tracing overhead;
    // then one nominal-rate step yields the per-layer split.
    daemon = std::make_unique<Daemon>(args, threads.nproc, true);
    warm_up(daemon->port(), conns, catalog);
    std::vector<double> traced_ms;
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      account(result, summarize(0, run_plan(daemon->port(), conns, closed, true)));
      traced_ms.push_back(ms_since(start));
    }
    std::map<std::string, double> extras;
    extras["trace.overhead_share"] =
        (median(traced_ms) - median(pass_ms)) / median(pass_ms);

    const Json before = daemon_metrics(daemon->port());
    const std::vector<Planned> plan =
        plan_step(catalog, rng, kNominalRps, nominal_s, conns, next_fresh);
    const std::vector<Outcome> outcomes =
        run_plan(daemon->port(), conns, plan, false);
    const StatsDelta delta =
        metrics_delta(before, daemon_metrics(daemon->port()));
    const double peak = peak_rss_mb(daemon->pid());
    daemon.reset();
    account(result, summarize(kNominalRps, outcomes));

    std::vector<double> hit_rtt, miss_rtt, server, wire, lateness;
    std::set<const Model*> missed;
    double hits = 0, wire_total = 0;
    for (const Outcome& o : outcomes) {
      (o.hit ? hit_rtt : miss_rtt).push_back(o.rtt_ms);
      if (!o.hit) missed.insert(o.model);
      hits += o.hit ? 1 : 0;
      server.push_back(o.server_ms);
      wire.push_back(o.rtt_ms - o.server_ms);
      lateness.push_back(o.lateness_ms);
      wire_total += o.rtt_ms - o.server_ms;
    }
    const auto p = [](const std::vector<double>& v) {
      return "p50 " + num(median(v)) + " p99 " + num(quantile(v, 0.99)) +
             " ms (n=" + std::to_string(v.size()) + ")";
    };
    result.note("serve.rtt.hit " + p(hit_rtt));
    result.note("serve.rtt.miss " + p(miss_rtt));
    result.note("serve.server " + p(server));
    result.note("serve.wire " + p(wire));
    result.note("load.lateness " + p(lateness));
    result.note("daemon peak_rss_mb = " + num(peak));
    extras["serve.wire.ms"] = wire_total;
    extras["serve.cache.hit_share"] =
        hits / static_cast<double>(outcomes.size());
    extras["serve.compiles_per_new_model"] =
        missed.empty() ? 0
                       : delta.counter("compile.calls") /
                             static_cast<double>(missed.size());
    // Serve work counts depend on timing (cache races), so they are not
    // compared between runs.
    extras["work.count_mismatches"] = 0;

    // Layer times: the daemon's compile and check timers over the step;
    // read, parse and the graph layers as standalone calls on the catalog.
    std::map<std::string, double> layers;
    layers["casestudies.generate.ms"] = generate_ms;
    layers["compile.ms"] = delta.ms("compile.time");
    layers["checker.check.ms"] = delta.ms("checker.check.time");
    for (const Model& m : catalog.models) {
      auto t = Clock::now();
      const std::string source = read_file(m.path);
      layers["read.ms"] += ms_since(t);
      t = Clock::now();
      const PrismModel parsed = parse_prism(source);
      layers["parse.prism.ms"] += ms_since(t);
      t = Clock::now();
      (void)parse_pctl(m.formula);
      layers["parse.pctl.ms"] += ms_since(t);
      const bool dtmc = parsed.type == PrismModel::Type::kDtmc;
      const std::string goal =
          m.formula.substr(m.formula.find('"') + 1,
                           m.formula.rfind('"') - m.formula.find('"') - 1);
      time_graph_layers(dtmc ? compile(parsed.dtmc()) : compile(parsed.mdp),
                        goal, dtmc, layers);
    }
    for (const auto& [name, value] : delta.counters) {
      if (value != 0 && name.rfind("serve.", 0) == 0) {
        result.note("daemon stats " + name + " = " + num(value));
      }
    }
    set_per_layer(result, layers, delta, extras);
    return result;
  }

  // The rate ladder; the nominal rate runs longest and sets p50/p99.
  std::vector<StepStats> steps;
  StepStats nominal;
  for (const double rps : kLadderRps) {
    const double seconds = rps == kNominalRps ? nominal_s : ladder_s;
    const std::vector<Planned> plan =
        plan_step(catalog, rng, rps, seconds, conns, next_fresh);
    StepStats s = summarize(rps, run_plan(daemon->port(), conns, plan, false));
    account(result, s);
    result.note("rate " + num(rps) + " rps: " + std::to_string(s.requests) +
                " requests, p50 " + num(median(s.latency)) + " ms, p99 " +
                num(quantile(s.latency, 0.99)) + " ms, lateness p99 " +
                num(quantile(s.lateness, 0.99)) + " ms, failed " +
                std::to_string(s.failed));
    if (rps == kNominalRps) nominal = s;
    steps.push_back(std::move(s));
  }
  const double peak = peak_rss_mb(daemon->pid());
  daemon.reset();

  double max_rate = 0;
  for (const StepStats& s : steps) {
    // Meets the limit without a growing backlog: p99 under the limit and
    // the generator never more than half the limit behind.
    if (quantile(s.latency, 0.99) < kLimitMs &&
        quantile(s.lateness, 0.99) < kLimitMs / 2.0) {
      max_rate = std::max(max_rate, s.rps);
    }
  }
  result.note("req_p50_ms = " + num(median(nominal.latency)) +
              ", req_p99_ms = " + num(quantile(nominal.latency, 0.99)) +
              " at " + num(kNominalRps) + " rps over " +
              std::to_string(nominal.requests) + " requests (limit " +
              std::to_string(kLimitMs) + " ms)");
  result.note("max_rate_rps = " + num(max_rate));
  result.set("setup_s", median(setup_s), "s");
  result.set("wall_s", median(pass_ms) / 1e3, "s");
  result.set("p50_ms", median(nominal.latency), "ms");
  result.set("tail_ms", quantile(nominal.latency, 0.99), "ms");
  result.set("peak_rss_mb", peak, "MB");
  return result;
}

}  // namespace perfbench
