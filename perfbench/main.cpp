// perfbench_driver: the FuseDP end-to-end benchmark.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--source-digest HEX]
//   perfbench_driver --self-test        summary-code checks
//   perfbench_driver --list-metrics     every metric name and unit
//
// Workloads (see perfbench/README.md for why each exists):
//   serve_mixed  closed loop against one PipelineService per paper pipeline
//   batch_large  one large frame at a time through Session::execute
//   open_churn   evict / cold open / warm opens over a read-write find-db
//
// Every run generates its inputs from the seed, computes the scalar
// reference of every frame with run_reference, measures for --seconds, and
// compares every output bit-for-bit against its reference outside the timed
// interval.  The last stdout line is the result object; --trace 0 prints the
// end-to-end metrics, --trace 1 (a separate run) the per-layer metrics.
// Exit codes: 0 ok, 1 wrong output / failed request / search drift,
// 2 usage, 3 set-up failure.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "api/serve.hpp"
#include "api/session.hpp"
#include "bench_common.hpp"
#include "fusion/serialize.hpp"
#include "layers.hpp"
#include "pipelines/pipelines.hpp"
#include "support/fingerprint.hpp"
#include "support/rng.hpp"
#include "summary.hpp"

namespace fs = std::filesystem;
using namespace fusedp;

namespace perfbench {
namespace {

// --- Fixed benchmark configuration ------------------------------------------

// DP state budget for every kAuto search, with no wall deadline, so every
// run picks the same groupings.  At this budget campipe ends at
// bounded-dp(limit 4) and pyramid at bounded-dp(limit 2).
constexpr std::uint64_t kStateBudget = 150'000;
constexpr int kSetupReps = 4;           // set-ups per run; setup_s is their median
constexpr std::int64_t kBatchScale = 2;  // batch_large: paper extents / 2
constexpr std::int64_t kServeScale = 4;  // serve_mixed: at least paper / 4
constexpr std::int64_t kChurnScale = 8;  // open_churn: small frames
constexpr int kChurnWarmIters = 25;      // warm opens per pipeline per round
constexpr int kOutstanding = 2;          // serve_mixed: submits in flight per client
// serve_mixed frames above the shard threshold (paper extents / 4).
const char* const kLargeServeKeys[] = {"unsharp", "pyramid"};

const std::vector<std::string>& pipeline_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (const BenchmarkInfo& b : benchmark_list()) k.push_back(b.key);
    return k;
  }();
  return keys;
}

using Catalog = std::vector<std::pair<std::string, std::string>>;  // name, unit

const Catalog& e2e_catalog() {
  static const Catalog c = {
      {"frames_per_s", "1/s"},       {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},      {"mpix_per_s", "Mpx/s"},
      {"open_cold_s", "s"},          {"first_frame_p50_ms", "ms"},
      {"first_frame_p99_ms", "ms"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},         {"ok_share", "ratio"},
  };
  return c;
}

const Catalog& layer_catalog() {
  static const Catalog c = [] {
    Catalog k = {
        {"serve.queue_wait_p50_ms", "ms"},
        {"serve.queue_wait_p99_ms", "ms"},
        {"serve.queue_wait_p50_ms.interactive", "ms"},
        {"serve.queue_wait_p99_ms.interactive", "ms"},
        {"serve.queue_wait_p50_ms.bulk", "ms"},
        {"serve.queue_wait_p99_ms.bulk", "ms"},
        {"serve.exec_p50_ms", "ms"},
        {"serve.coalesced", "count"},
        {"serve.sharded", "count"},
        {"serve.rejected", "count"},
        {"session.open_warm_ms", "ms"},
        {"session.first_execute_ms", "ms"},
        {"session.unattributed_ms", "ms"},
        {"findb.probe_ms_p50", "ms"},
        {"findb.probe_ms_p99", "ms"},
        {"findb.store_ms_p50", "ms"},
        {"findb.hit_share", "ratio"},
        {"findb.bad_records", "count"},
    };
    for (const std::string& p : pipeline_keys()) {
      k.push_back({"fusion.search_ms." + p, "ms"});
      k.push_back({"fusion.dp_states." + p, "count"});
      k.push_back({"fusion.useful_state_share." + p, "ratio"});
      k.push_back({"model.us_per_state." + p, "us"});
      k.push_back({"fusion.groups." + p, "count"});
    }
    for (const std::string& p : pipeline_keys()) {
      k.push_back({"runtime.plan_build_ms." + p, "ms"});
      k.push_back({"runtime.prepare_ms." + p, "ms"});
      k.push_back({"runtime.execute_ms." + p, "ms"});
      k.push_back({"runtime.redundant_share." + p, "ratio"});
      k.push_back({"runtime.interior_share." + p, "ratio"});
      k.push_back({"runtime.unattributed_share." + p, "ratio"});
    }
    k.push_back({"pool.steal_events", "count"});
    k.push_back({"pool.tiles_stolen", "count"});
    k.push_back({"runtime.tile_queue_wait_ms", "ms"});
    k.push_back({"governor.high_water_mb", "MB"});
    k.push_back({"verify.mismatches", "count"});
    k.push_back({"verify.reference_s", "s"});
    return k;
  }();
  return c;
}

// --- Small utilities ----------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Fnv64 h;
  h.add_u64(a);
  h.add_u64(b);
  return h.digest();
}

std::uint64_t str_hash(const std::string& s) {
  Fnv64 h;
  h.add_str(s);
  return h.digest();
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(x * k);
  return out;
}

bool same_bits(const Buffer& a, const Buffer& b) {
  return a.volume() == b.volume() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.volume()) * sizeof(float)) == 0;
}

// --- Frames, inputs and references --------------------------------------------

// One pipeline instance at one size with its seeded inputs.  The spec owns
// the Pipeline, whose address stays stable while sessions refer to it.
struct Frame {
  std::string key;
  std::int64_t scale = 1;
  PipelineSpec spec;
  std::vector<Buffer> inputs;
  double out_mpx = 0.0;  // output megapixels (H x W summed over outputs)

  const Pipeline& pl() const { return *spec.pipeline; }
  std::string label() const { return key + "@" + std::to_string(scale); }
};

std::int64_t output_volume(const Pipeline& pl) {
  std::int64_t v = 0;
  for (int s : pl.outputs()) v += pl.stage(s).domain.volume();
  return v;
}

Frame make_frame(const std::string& key, std::int64_t scale,
                 std::uint64_t seed) {
  Frame f;
  f.key = key;
  f.scale = scale;
  f.spec = make_benchmark(key, scale);
  const Pipeline& pl = f.pl();
  for (int i = 0; i < pl.num_inputs(); ++i) {
    const Box& dom = pl.input(i).domain;
    std::vector<std::int64_t> extents;
    for (int d = 0; d < dom.rank; ++d) extents.push_back(dom.extent(d));
    Buffer b(extents);
    Rng rng(mix(mix(seed, str_hash(f.label())), static_cast<std::uint64_t>(i)));
    float* p = b.data();
    for (std::int64_t j = 0; j < b.volume(); ++j) p[j] = rng.next_float();
    f.inputs.push_back(std::move(b));
  }
  for (int s : pl.outputs()) {
    const Box& dom = pl.stage(s).domain;
    const std::int64_t px = dom.rank >= 2 ? dom.extent(dom.rank - 2) *
                                                dom.extent(dom.rank - 1)
                                          : dom.volume();
    f.out_mpx += static_cast<double>(px) / 1e6;
  }
  return f;
}

// Reference outputs of every frame, computed with run_reference in up to
// `workers` child processes (run_reference materializes every stage, so
// keeping it out of this process keeps peak_rss_mb about the program under
// test).  Must run before this process starts any thread.  Each child
// writes its frames' outputs to a file in `dir`; the parent reads them back
// and removes the files.
std::vector<std::vector<Buffer>> compute_references(
    const std::vector<Frame>& frames, int workers, const fs::path& dir) {
  const int n = static_cast<int>(frames.size());
  workers = std::max(1, std::min(workers, n));
  // Longest-processing-time assignment by total stage volume.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  auto cost = [&](int i) {
    return frames[static_cast<std::size_t>(i)].pl().total_volume();
  };
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return cost(a) > cost(b); });
  std::vector<std::vector<int>> assigned(static_cast<std::size_t>(workers));
  std::vector<std::int64_t> load(static_cast<std::size_t>(workers), 0);
  for (int i : order) {
    const auto w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assigned[w].push_back(i);
    load[w] += cost(i);
  }

  fs::create_directories(dir);
  std::vector<pid_t> pids;
  std::vector<fs::path> files;
  for (int w = 0; w < workers; ++w) {
    const fs::path file =
        dir / ("refs-" + std::to_string(::getpid()) + "-" + std::to_string(w));
    files.push_back(file);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int rc = 0;
      try {
        std::ofstream out(file, std::ios::binary);
        for (int i : assigned[static_cast<std::size_t>(w)]) {
          const Frame& f = frames[static_cast<std::size_t>(i)];
          std::vector<Buffer> all = run_reference(f.pl(), f.inputs);
          for (int s : f.pl().outputs()) {
            const Buffer& b = all[static_cast<std::size_t>(s)];
            out.write(reinterpret_cast<const char*>(b.data()),
                      static_cast<std::streamsize>(b.volume() * sizeof(float)));
          }
        }
        out.close();
        rc = out ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "reference worker: %s\n", e.what());
        rc = 1;
      }
      std::fflush(nullptr);
      ::_exit(rc);
    }
    pids.push_back(pid);
  }
  bool ok = true;
  for (pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  std::vector<std::vector<Buffer>> refs(static_cast<std::size_t>(n));
  for (int w = 0; w < workers && ok; ++w) {
    std::ifstream in(files[static_cast<std::size_t>(w)], std::ios::binary);
    for (int i : assigned[static_cast<std::size_t>(w)]) {
      const Pipeline& pl = frames[static_cast<std::size_t>(i)].pl();
      for (int s : pl.outputs()) {
        const Box& dom = pl.stage(s).domain;
        std::vector<std::int64_t> extents;
        for (int d = 0; d < dom.rank; ++d) extents.push_back(dom.extent(d));
        Buffer b(extents);
        in.read(reinterpret_cast<char*>(b.data()),
                static_cast<std::streamsize>(b.volume() * sizeof(float)));
        refs[static_cast<std::size_t>(i)].push_back(std::move(b));
      }
    }
    ok = ok && static_cast<bool>(in);
  }
  for (const fs::path& f : files) fs::remove(f);
  if (!ok) throw std::runtime_error("reference computation failed");
  return refs;
}

bool matches(const std::vector<Buffer>& got, const std::vector<Buffer>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!same_bits(got[i], want[i])) return false;
  return true;
}

bool session_matches(const Session& s, const std::vector<Buffer>& want) {
  if (static_cast<std::size_t>(s.num_outputs()) != want.size()) return false;
  for (int i = 0; i < s.num_outputs(); ++i)
    if (!same_bits(s.output(i), want[static_cast<std::size_t>(i)])) return false;
  return true;
}

// --- Run-wide state -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/work";
  std::string source_digest = "unknown";
};

// One search's identity for the determinism guard.
struct SearchId {
  std::uint64_t states = 0;
  std::string tier;
  std::string grouping_fp;
  std::size_t groups = 0;

  bool operator==(const SearchId&) const = default;
  std::string str() const {
    return std::to_string(states) + " " + tier + " " + grouping_fp + " " +
           std::to_string(groups);
  }
};

std::vector<observe::ScheduleAttempt> attempts_of(const Diagnostics& d) {
  std::vector<observe::ScheduleAttempt> out;
  for (const TierAttempt& ta : d.attempts) {
    observe::ScheduleAttempt at;
    at.tier = schedule_tier_name(ta.tier);
    at.group_limit = ta.group_limit;
    at.succeeded = ta.succeeded;
    at.states = ta.states;
    at.seconds = ta.seconds;
    out.push_back(std::move(at));
  }
  return out;
}

struct Run {
  Args args;
  int threads = 1;  // min(4, nproc): client threads, pool workers, OpenMP team
  SpanRecorder rec;
  LayerSink sink;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // coded failures and admission rejections
  std::int64_t mismatched = 0;  // outputs that differ from the reference
  std::vector<std::string> problems;

  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> notes;  // tail ranks, sample counts, ...

  // First search per label, and whether any later search differed.
  std::map<std::string, SearchId> searches;
  std::map<std::string, SearchFacts> first_facts;
  bool drift = false;

  explicit Run(const Args& a) : args(a), rec(a.trace), sink(rec) {}

  // Records one finished search; a different result for a label already
  // seen in this process is search drift.
  void note_search(const std::string& label, const Pipeline& pl,
                   const Grouping& g,
                   const std::vector<observe::ScheduleAttempt>& attempts) {
    const SearchFacts f = facts_from_attempts(attempts);
    SearchId id;
    id.states = f.states;
    id.tier = f.tier;
    id.grouping_fp = hex64(str_hash(grouping_to_text(pl, g)));
    id.groups = g.groups.size();
    auto it = searches.find(label);
    if (it == searches.end()) {
      searches.emplace(label, id);
      first_facts.emplace(label, f);
    } else if (!(it->second == id)) {
      drift = true;
      problems.push_back("search drift for " + label + ": " +
                         it->second.str() + " then " + id.str());
    }
  }

  void note_output(bool ok, const std::string& what) {
    if (!ok) {
      ++mismatched;
      if (problems.size() < 20) problems.push_back("output mismatch: " + what);
    }
  }

  void note_failure(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back("failure: " + what);
  }

  void put_tail(std::map<std::string, double>& into, const std::string& name,
                const std::vector<double>& samples, double q) {
    const Tail t = tail(samples, q);
    into[name] = t.value;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "q=%.4f n=%zu beyond=%zu%s", t.q, t.n,
                  t.beyond, t.enough ? "" : " (too few samples)");
    notes[name] = buf;
  }

  // fusion.* / model.* from the first search of each paper pipeline,
  // labelled key@scale.
  void put_search_metrics(const std::map<std::string, std::string>& label_of) {
    for (const auto& [key, label] : label_of) {
      auto it = first_facts.find(label);
      if (it == first_facts.end()) continue;
      const SearchFacts& f = it->second;
      layer["fusion.search_ms." + key] = f.seconds * 1e3;
      layer["fusion.dp_states." + key] = static_cast<double>(f.states);
      layer["fusion.useful_state_share." + key] =
          f.states > 0 ? static_cast<double>(f.winning_states) /
                             static_cast<double>(f.states)
                       : 0.0;
      layer["model.us_per_state." + key] =
          f.states > 0 ? f.seconds * 1e6 / static_cast<double>(f.states) : 0.0;
      layer["fusion.groups." + key] =
          static_cast<double>(searches.at(label).groups);
    }
  }
};

// Times `fn` `reps` times; returns the median seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    WallTimer w;
    fn();
    t.push_back(w.seconds());
  }
  return median(t);
}

// runtime.* for one pipeline: plan build and workspace prepare by direct
// calls, execution counters from the sink's group records (`runs` of the
// label, already recorded), and the median execute time supplied by the
// workload.
void put_runtime_metrics(Run& run, const std::string& key, const Pipeline& pl,
                         const Grouping& g, const ExecOptions& eo,
                         double execute_s) {
  run.layer["runtime.plan_build_ms." + key] =
      1e3 * median_seconds(3, [&] { Executor ex(pl, g, eo); });
  const Executor ex(pl, g, eo);
  run.layer["runtime.prepare_ms." + key] = 1e3 * median_seconds(3, [&] {
    Workspace ws;
    ws.prepare(ex.plan());
  });
  run.layer["runtime.execute_ms." + key] = execute_s * 1e3;
  const auto totals = run.sink.runtime();
  auto it = totals.find(key);
  if (it == totals.end()) return;
  const RuntimeTotals& t = it->second;
  if (t.computed > 0)
    run.layer["runtime.redundant_share." + key] =
        static_cast<double>(t.computed - t.owned) / static_cast<double>(t.computed);
  if (t.tiles_run > 0)
    run.layer["runtime.interior_share." + key] =
        static_cast<double>(t.interior_tiles) / static_cast<double>(t.tiles_run);
  if (t.run_seconds > 0.0)
    run.layer["runtime.unattributed_share." + key] =
        residual(t.run_seconds, {t.group_seconds}).share;
  run.layer["runtime.tile_queue_wait_ms"] += t.tile_queue_wait * 1e3;
}

Options session_options(const Run& run) {
  Options o;
  o.num_threads = run.threads;
  o.scheduler = Scheduler::kAuto;
  o.max_states = kStateBudget;
  o.deadline_seconds = 0.0;
  return o;
}

// Median of per-rep set-up seconds, plus the shared bookkeeping.
struct SetupTimes {
  std::vector<double> rep_s;
  // Cold-open seconds per pipeline key, one per set-up (or round).
  std::map<std::string, std::vector<double>> cold_open_s;
};

// --- serve_mixed -------------------------------------------------------------

struct ServeSide {
  std::vector<Frame> frames;  // six serving-sized frames, then the large ones
  std::vector<std::unique_ptr<PipelineService>> services;
};

std::vector<Frame> serve_frames(std::uint64_t seed) {
  const std::int64_t threshold = ServeOptions{}.shard_threshold_pixels;
  std::vector<Frame> frames;
  for (const std::string& key : pipeline_keys()) {
    // The smallest downscale from paper / 4 whose frame coalesces.
    std::int64_t s = kServeScale;
    while (output_volume(*make_benchmark(key, s).pipeline) >= threshold) ++s;
    frames.push_back(make_frame(key, s, seed));
  }
  for (const char* key : kLargeServeKeys) {
    frames.push_back(make_frame(key, kServeScale, seed));
    if (output_volume(frames.back().pl()) < threshold)
      throw std::runtime_error(std::string("serve_mixed: large ") + key +
                               " frame is below the shard threshold");
  }
  return frames;
}

void serve_mixed(Run& run, const std::vector<std::vector<Buffer>>& refs,
                 SetupTimes& st) {
  const int W = run.threads;
  const std::size_t n_small = pipeline_keys().size();
  ServeSide side;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Services refer to their frames' pipelines: drain them first.
    side.services.clear();
    side.frames.clear();
    Scope span(run.rec, "setup");
    WallTimer t;
    side.frames = serve_frames(run.args.seed);
    for (std::size_t i = 0; i < side.frames.size(); ++i) {
      const Frame& f = side.frames[i];
      ServeOptions so;
      so.workers = W;
      so.session = session_options(run);
      so.session.observer = &run.sink;  // sees only the search at create()
      run.sink.set_context(f.label());
      WallTimer ct;
      Result<std::unique_ptr<PipelineService>> svc = [&] {
        Scope s(run.rec, "PipelineService::create");
        return PipelineService::create(f.pl(), so);
      }();
      if (!svc.ok())
        throw std::runtime_error("PipelineService::create(" + f.label() +
                                 "): " + svc.error().what());
      if (i < n_small) st.cold_open_s[f.key].push_back(ct.seconds());
      side.services.push_back(std::move(svc).value());
      run.note_search(f.label(), f.pl(), side.services.back()->grouping(),
                      run.sink.take_attempts(f.label()));
    }
    // Warm every pooled workspace of every service before timing.
    for (std::size_t i = 0; i < side.services.size(); ++i) {
      std::vector<PipelineService::Ticket> tickets;
      for (int k = 0; k < W; ++k) {
        ServeRequest req;
        req.inputs = side.frames[i].inputs;
        Result<PipelineService::Ticket> tk = side.services[i]->submit(std::move(req));
        if (tk.ok()) tickets.push_back(std::move(tk).value());
      }
      for (PipelineService::Ticket& tk : tickets) {
        Result<ServeReply> r = tk.wait();
        if (rep == kSetupReps - 1) {
          ++run.attempted;
          if (!r.ok())
            run.note_failure(side.frames[i].label() + " warm-up: " + r.error().what());
          else
            run.note_output(matches(r.value().outputs, refs[i]),
                            side.frames[i].label() + " warm-up");
        }
      }
    }
    st.rep_s.push_back(t.seconds());
  }

  std::vector<ServeStats> stats0;
  for (const auto& s : side.services) stats0.push_back(s->stats());
  const PoolStats pool0 = WorkPool::instance().stats();

  struct Sample {
    double latency = 0.0, queue_wait = 0.0, exec = 0.0;
    std::size_t frame = 0;
    bool bulk = false;
  };
  struct Client {
    std::vector<Sample> in_window;
    std::int64_t attempted = 0, failed = 0, mismatched = 0;
    std::vector<std::string> problems;
  };
  std::vector<Client> clients(static_cast<std::size_t>(W));
  std::atomic<std::int64_t> next_request{0};
  const std::uint64_t measure_span = run.rec.begin("measure");
  const double t_start = run.rec.now();
  const double t_end = t_start + run.args.seconds;

  auto client_main = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    Rng rng(mix(run.args.seed, 0xC11E47u + static_cast<std::uint64_t>(c)));
    struct Pending {
      PipelineService::Ticket ticket;
      double t_submit;
      std::size_t frame;
      bool bulk;
      std::int64_t id;
    };
    std::deque<Pending> pending;
    auto submit_one = [&] {
      // One request in six is a large (sharded) frame; a quarter are bulk.
      std::size_t idx = 0;
      if (rng.next_below(6) == 0)
        idx = n_small + rng.next_below(side.frames.size() - n_small);
      else
        idx = rng.next_below(n_small);
      const bool bulk = rng.next_below(4) == 0;
      ServeRequest req;
      req.inputs = side.frames[idx].inputs;  // copied before the clock starts
      req.priority = bulk ? TaskPriority::kBulk : TaskPriority::kInteractive;
      const std::int64_t id = next_request.fetch_add(1);
      const double t0 = run.rec.now();
      Result<PipelineService::Ticket> tk = side.services[idx]->submit(std::move(req));
      ++me.attempted;
      if (!tk.ok()) {
        ++me.failed;
        if (me.problems.size() < 5) me.problems.push_back(tk.error().what());
        return;
      }
      pending.push_back({std::move(tk).value(), t0, idx, bulk, id});
    };
    for (int k = 0; k < kOutstanding; ++k) submit_one();
    while (!pending.empty()) {
      Pending p = std::move(pending.front());
      pending.pop_front();
      Result<ServeReply> r = p.ticket.wait();
      const double t1 = run.rec.now();
      if (t1 < t_end) submit_one();
      if (!r.ok()) {
        ++me.failed;
        if (me.problems.size() < 5) me.problems.push_back(r.error().what());
        continue;
      }
      const ServeReply& reply = r.value();
      if (t1 < t_end)
        me.in_window.push_back({t1 - p.t_submit, reply.queue_wait_seconds,
                                reply.seconds, p.frame, p.bulk});
      if (run.rec.enabled()) {
        const std::uint64_t rs = run.rec.add(
            p.bulk ? "request.bulk" : "request.interactive", measure_span,
            p.t_submit, t1, p.id);
        const double q1 = p.t_submit + reply.queue_wait_seconds;
        run.rec.add("serve.queue_wait", rs, p.t_submit, q1, p.id);
        run.rec.add("serve.exec", rs, q1, q1 + reply.seconds, p.id);
      }
      // Checked after the request's timed interval closed.
      if (!matches(reply.outputs, refs[p.frame])) {
        ++me.mismatched;
        if (me.problems.size() < 5)
          me.problems.push_back("output mismatch: " + side.frames[p.frame].label());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < W; ++c) threads.emplace_back(client_main, c);
  for (std::thread& th : threads) th.join();
  const double window = std::max(t_end, run.rec.now()) - t_start;
  run.rec.end(measure_span);

  const PoolStats pool1 = WorkPool::instance().stats();
  ServeStats delta;
  for (std::size_t i = 0; i < side.services.size(); ++i) {
    const ServeStats s = side.services[i]->stats();
    delta.coalesced += s.coalesced - stats0[i].coalesced;
    delta.sharded += s.sharded - stats0[i].sharded;
    delta.rejected += s.rejected - stats0[i].rejected;
  }

  std::vector<double> lat, qw, qw_i, qw_b, ex;
  std::vector<std::vector<double>> exec_by_frame(n_small);
  for (Client& c : clients) {
    run.attempted += c.attempted;
    run.failed += c.failed;
    run.mismatched += c.mismatched;
    for (std::string& p : c.problems) run.problems.push_back(std::move(p));
    for (const Sample& s : c.in_window) {
      lat.push_back(s.latency);
      qw.push_back(s.queue_wait);
      (s.bulk ? qw_b : qw_i).push_back(s.queue_wait);
      ex.push_back(s.exec);
      if (s.frame < n_small) exec_by_frame[s.frame].push_back(s.exec);
    }
  }
  std::vector<double> mpx;
  for (std::size_t i = 0; i < n_small; ++i)
    mpx.push_back(side.frames[i].out_mpx / median(exec_by_frame[i]));

  run.e2e["frames_per_s"] = static_cast<double>(lat.size()) / window;
  run.put_tail(run.e2e, "latency_p50_ms", scaled(lat, 1e3), 0.50);
  run.put_tail(run.e2e, "latency_p99_ms", scaled(lat, 1e3), 0.99);
  // No open per request: a caller's first frame is its request's reply.
  run.e2e["first_frame_p50_ms"] = run.e2e["latency_p50_ms"];
  run.e2e["first_frame_p99_ms"] = run.e2e["latency_p99_ms"];
  run.e2e["mpix_per_s"] = geomean(mpx);
  run.notes["mpix_per_s"] = "geomean over serving-sized frames of Mpx / median exec";
  run.notes["open_cold_s"] = "PipelineService::create, six serving-sized pipelines";

  run.put_tail(run.layer, "serve.queue_wait_p50_ms", scaled(qw, 1e3), 0.50);
  run.put_tail(run.layer, "serve.queue_wait_p99_ms", scaled(qw, 1e3), 0.99);
  run.put_tail(run.layer, "serve.queue_wait_p50_ms.interactive", scaled(qw_i, 1e3), 0.50);
  run.put_tail(run.layer, "serve.queue_wait_p99_ms.interactive", scaled(qw_i, 1e3), 0.99);
  run.put_tail(run.layer, "serve.queue_wait_p50_ms.bulk", scaled(qw_b, 1e3), 0.50);
  run.put_tail(run.layer, "serve.queue_wait_p99_ms.bulk", scaled(qw_b, 1e3), 0.99);
  run.layer["serve.exec_p50_ms"] = median(ex) * 1e3;
  run.layer["serve.coalesced"] = static_cast<double>(delta.coalesced);
  run.layer["serve.sharded"] = static_cast<double>(delta.sharded);
  run.layer["serve.rejected"] = static_cast<double>(delta.rejected);
  run.layer["pool.steal_events"] =
      static_cast<double>(pool1.steal_events - pool0.steal_events);
  run.layer["pool.tiles_stolen"] =
      static_cast<double>(pool1.tiles_stolen - pool0.tiles_stolen);

  std::map<std::string, std::string> label_of;
  for (std::size_t i = 0; i < n_small; ++i)
    label_of[side.frames[i].key] = side.frames[i].label();
  run.put_search_metrics(label_of);

  if (!run.args.trace) return;
  // runtime.*: direct Executor runs of each serving-sized frame with the
  // service's plan options and lane width, observed by the sink.
  for (std::size_t i = 0; i < n_small; ++i) {
    const Frame& f = side.frames[i];
    const PipelineService& svc = *side.services[i];
    Options o = session_options(run);
    o.pool_backend = true;
    o.num_threads = W;
    const ExecOptions eo = make_exec_options(o);
    const Executor exe(f.pl(), svc.grouping(), eo);
    Workspace ws;
    RunKnobs knobs;
    knobs.obs = &run.sink;
    knobs.lanes = svc.sharded() ? W : 1;
    run.sink.set_context(f.key);
    std::vector<double> t;
    for (int k = 0; k < 5; ++k) {
      Scope s(run.rec, "Executor::run", k);
      WallTimer w;
      exe.run(f.inputs, ws, knobs);
      t.push_back(w.seconds());
    }
    std::vector<Buffer> got;
    for (int s : f.pl().outputs()) got.push_back(ws.stage_buffer(s));
    ++run.attempted;
    run.note_output(matches(got, refs[i]), f.label() + " direct run");
    put_runtime_metrics(run, f.key, f.pl(), svc.grouping(), eo, median(t));
  }
}

// --- batch_large -----------------------------------------------------------------

void batch_large(Run& run, const std::vector<std::vector<Buffer>>& refs,
                 SetupTimes& st) {
  std::vector<Frame> frames;
  std::vector<Session> sessions;
  std::vector<double> first_exec;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sessions.clear();
    frames.clear();
    first_exec.clear();
    Scope span(run.rec, "setup");
    WallTimer t;
    for (const std::string& key : pipeline_keys())
      frames.push_back(make_frame(key, kBatchScale, run.args.seed));
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Frame& f = frames[i];
      Options o = session_options(run);
      if (run.args.trace) o.observer = &run.sink;
      run.sink.set_context(f.key);
      WallTimer ct;
      Result<Session> s = [&] {
        Scope sp(run.rec, "Session::open");
        return Session::open(f.pl(), o);
      }();
      if (!s.ok())
        throw std::runtime_error("Session::open(" + f.label() + "): " +
                                 s.error().what());
      st.cold_open_s[f.key].push_back(ct.seconds());
      sessions.push_back(std::move(s).value());
      run.note_search(f.label(), f.pl(), sessions.back().grouping(),
                      attempts_of(sessions.back().diagnostics()));
      // First execute prepares the workspace; part of set-up.
      WallTimer et;
      Result<double> r = [&] {
        Scope sp(run.rec, "Session::execute");
        return sessions.back().execute(f.inputs);
      }();
      first_exec.push_back(et.seconds());
      if (rep == kSetupReps - 1) {
        ++run.attempted;
        if (!r.ok())
          run.note_failure(f.label() + " first execute: " + r.error().what());
        else
          run.note_output(session_matches(sessions.back(), refs[i]),
                          f.label() + " first execute");
      }
    }
    st.rep_s.push_back(t.seconds());
  }
  run.sink.clear_runtime();

  std::vector<std::vector<double>> per_frame(frames.size());
  std::vector<double> lat;
  const std::uint64_t measure_span = run.rec.begin("measure");
  const double t_start = run.rec.now();
  const double t_end = t_start + run.args.seconds;
  std::int64_t req = 0;
  // Whole cycles over the six pipelines, so the mix never depends on where
  // the clock runs out.
  for (std::size_t i = 0; i != 0 || run.rec.now() < t_end;
       i = (i + 1) % frames.size()) {
    if (run.args.trace) run.sink.set_context(frames[i].key);
    const double t0 = run.rec.now();
    Result<double> r = [&] {
      Scope sp(run.rec, "Session::execute", req);
      return sessions[i].execute(frames[i].inputs);
    }();
    const double t1 = run.rec.now();
    ++req;
    ++run.attempted;
    if (!r.ok()) {
      run.note_failure(frames[i].label() + ": " + r.error().what());
      continue;
    }
    lat.push_back(t1 - t0);
    per_frame[i].push_back(t1 - t0);
    run.note_output(session_matches(sessions[i], refs[i]), frames[i].label());
  }
  const double window = run.rec.now() - t_start;
  run.rec.end(measure_span);

  std::vector<double> mpx;
  for (std::size_t i = 0; i < frames.size(); ++i)
    mpx.push_back(frames[i].out_mpx / median(per_frame[i]));
  run.e2e["frames_per_s"] = static_cast<double>(lat.size()) / window;
  run.put_tail(run.e2e, "latency_p50_ms", scaled(lat, 1e3), 0.50);
  run.put_tail(run.e2e, "latency_p99_ms", scaled(lat, 1e3), 0.99);
  run.e2e["first_frame_p50_ms"] = run.e2e["latency_p50_ms"];
  run.e2e["first_frame_p99_ms"] = run.e2e["latency_p99_ms"];
  run.e2e["mpix_per_s"] = geomean(mpx);
  run.notes["mpix_per_s"] = "geomean over the six pipelines of Mpx / median frame time";
  run.notes["open_cold_s"] = "Session::open with search, six pipelines";
  run.layer["session.first_execute_ms"] = median(first_exec) * 1e3;

  std::map<std::string, std::string> label_of;
  for (const Frame& f : frames) label_of[f.key] = f.label();
  run.put_search_metrics(label_of);
  if (!run.args.trace) return;
  for (std::size_t i = 0; i < frames.size(); ++i)
    put_runtime_metrics(run, frames[i].key, frames[i].pl(),
                        sessions[i].grouping(),
                        make_exec_options(sessions[i].options()),
                        median(per_frame[i]));
}

// --- open_churn --------------------------------------------------------------------

bool bad_outcome(const std::string& outcome) {
  return outcome == "corrupt" || outcome == "truncated" ||
         outcome == "version-skew" || outcome == "stale-sha" ||
         outcome == "key-mismatch" || outcome == "invalid-schedule";
}

void open_churn(Run& run, const std::vector<std::vector<Buffer>>& refs,
                SetupTimes& st) {
  const fs::path cache_dir =
      run.args.work_dir / ("findb-" + std::to_string(::getpid()));
  std::vector<Frame> frames;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    frames.clear();
    Scope span(run.rec, "setup");
    WallTimer t;
    for (const std::string& key : pipeline_keys())
      frames.push_back(make_frame(key, kChurnScale, run.args.seed));
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    st.rep_s.push_back(t.seconds());
  }
  Options o = session_options(run);
  o.cache_mode = findb::CacheMode::kReadWrite;
  o.cache_dir = cache_dir.string();
  o.cache_memory_entries = 0;  // every probe goes to disk
  if (run.args.trace) o.observer = &run.sink;

  std::vector<double> first_frame, run_lat, open_warm, probe_ms,
      store_ms, warm_unattr;
  std::vector<std::vector<double>> run_by_frame(frames.size());
  std::vector<std::vector<double>> open_by_frame(frames.size());
  std::vector<std::vector<double>> probe_by_frame(frames.size());
  std::int64_t warm_probes = 0, hits = 0, bad = 0;
  std::vector<std::optional<Grouping>> groupings(frames.size());
  auto tally_cache = [&](const std::vector<observe::CacheEvent>& evs,
                         std::size_t i, bool warm) {
    for (const observe::CacheEvent& ev : evs) {
      if (ev.action == "probe") {
        probe_ms.push_back(ev.seconds * 1e3);
        if (warm) {
          probe_by_frame[i].push_back(ev.seconds);
          ++warm_probes;
          hits += ev.outcome == "hit" ? 1 : 0;
        }
      } else if (ev.action == "store") {
        store_ms.push_back(ev.seconds * 1e3);
        if (ev.outcome != "stored") run.note_failure("store: " + ev.detail);
      }
      bad += bad_outcome(ev.outcome) ? 1 : 0;
    }
  };

  const std::uint64_t measure_span = run.rec.begin("measure");
  const double t_start = run.rec.now();
  const double t_end = t_start + run.args.seconds;
  std::int64_t req = 0;
  // Whole rounds only, so the cold/warm mix never depends on where the clock
  // runs out.
  for (int round = 0; run.rec.now() < t_end; ++round) {
    Scope round_span(run.rec, "round", round);
    {
      Scope sp(run.rec, "FindDb::evict_all");
      findb::FindDb db(o.findb_options());
      Result<int> ev = db.evict_all();
      if (!ev.ok()) run.note_failure(std::string("evict_all: ") + ev.error().what());
    }
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (run.args.trace) run.sink.set_context(frames[i].key);
      WallTimer ct;
      Result<Session> s = [&] {
        Scope sp(run.rec, "Session::open.cold", req);
        return Session::open(frames[i].pl(), o);
      }();
      st.cold_open_s[frames[i].key].push_back(ct.seconds());
      ++run.attempted;
      if (!s.ok()) {
        run.note_failure("cold open " + frames[i].label() + ": " + s.error().what());
        continue;
      }
      const Session& sess = s.value();
      if (sess.warm_start())
        run.note_failure("cold open " + frames[i].label() + " hit an evicted cache");
      run.note_search(frames[i].label(), frames[i].pl(), sess.grouping(),
                      attempts_of(sess.diagnostics()));
      tally_cache(sess.cache_events(), i, false);
      if (!groupings[i]) groupings[i] = sess.grouping();
    }

    for (int k = 0; k < kChurnWarmIters; ++k) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (run.args.trace) run.sink.set_context(frames[i].key);
        std::optional<Session> sess;
        std::optional<Result<std::vector<Buffer>>> out;
        double t0 = 0.0, t_open = 0.0, t1 = 0.0;
        ++run.attempted;
        {
          Scope ff(run.rec, "first_frame", req);
          t0 = run.rec.now();
          Result<Session> s = [&] {
            Scope sp(run.rec, "Session::open.warm", req);
            return Session::open(frames[i].pl(), o);
          }();
          t_open = run.rec.now();
          if (!s.ok()) {
            run.note_failure("warm open " + frames[i].label() + ": " + s.error().what());
            continue;
          }
          sess.emplace(std::move(s).value());
          Scope sp(run.rec, "Session::run", req);
          out.emplace(sess->run(frames[i].inputs));
          t1 = run.rec.now();
        }
        ++req;
        if (!out->ok()) {
          run.note_failure("warm run " + frames[i].label() + ": " + out->error().what());
          continue;
        }
        first_frame.push_back(t1 - t0);
        run_lat.push_back(t1 - t_open);
        open_warm.push_back(t_open - t0);
        run_by_frame[i].push_back(t1 - t_open);
        open_by_frame[i].push_back(t_open - t0);
        tally_cache(sess->cache_events(), i, true);
        // Checked after the first-frame interval closed.
        run.note_output(matches(out->value(), refs[i]), frames[i].label());
      }
    }
  }
  const double window = run.rec.now() - t_start;
  run.rec.end(measure_span);
  fs::remove_all(cache_dir);

  std::vector<double> mpx;
  for (std::size_t i = 0; i < frames.size(); ++i)
    mpx.push_back(frames[i].out_mpx / median(run_by_frame[i]));
  run.e2e["frames_per_s"] = static_cast<double>(first_frame.size()) / window;
  // A request here is a warm open plus its run, so the caller's latency is
  // the time to its first frame.
  run.put_tail(run.e2e, "first_frame_p50_ms", scaled(first_frame, 1e3), 0.50);
  run.put_tail(run.e2e, "first_frame_p99_ms", scaled(first_frame, 1e3), 0.99);
  run.e2e["latency_p50_ms"] = run.e2e["first_frame_p50_ms"];
  run.e2e["latency_p99_ms"] = run.e2e["first_frame_p99_ms"];
  run.e2e["mpix_per_s"] = geomean(mpx);
  run.notes["mpix_per_s"] = "geomean over the six pipelines of Mpx / median warm run()";
  run.notes["open_cold_s"] = "Session::open with search and store, six pipelines";

  run.layer["session.open_warm_ms"] = median(open_warm) * 1e3;
  run.layer["session.first_execute_ms"] = median(run_lat) * 1e3;
  run.put_tail(run.layer, "findb.probe_ms_p50", probe_ms, 0.50);
  run.put_tail(run.layer, "findb.probe_ms_p99", probe_ms, 0.99);
  run.layer["findb.store_ms_p50"] = median(store_ms);
  run.layer["findb.hit_share"] =
      warm_probes > 0 ? static_cast<double>(hits) / static_cast<double>(warm_probes)
                      : 0.0;
  run.layer["findb.bad_records"] = static_cast<double>(bad);

  std::map<std::string, std::string> label_of;
  for (const Frame& f : frames) label_of[f.key] = f.label();
  run.put_search_metrics(label_of);
  if (!run.args.trace) return;

  // Warm-open attribution: probe (per open, from its cache event), schedule
  // parse and plan build (direct calls); the rest is unattributed.
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!groupings[i]) continue;
    const Pipeline& pl = frames[i].pl();
    const std::string text = grouping_to_text(pl, *groupings[i]);
    const double parse_s =
        median_seconds(5, [&] { (void)try_grouping_from_text(pl, text); });
    const double plan_s = median_seconds(
        5, [&] { Executor ex(pl, *groupings[i], make_exec_options(o)); });
    for (std::size_t k = 0; k < open_by_frame[i].size(); ++k) {
      const double probe =
          k < probe_by_frame[i].size() ? probe_by_frame[i][k] : 0.0;
      unattributed.push_back(
          residual(open_by_frame[i][k], {probe, parse_s, plan_s}).unattributed);
    }
    put_runtime_metrics(run, frames[i].key, pl, *groupings[i],
                        make_exec_options(o), median(run_by_frame[i]));
  }
  run.layer["session.unattributed_ms"] = median(unattributed) * 1e3;
}

// --- Ledger: search determinism and tracing overhead across runs ------------------

fs::path ledger_path(const Run& run, const std::string& what) {
  return run.args.work_dir / "ledger" /
         (run.args.workload + "-seed" + std::to_string(run.args.seed) + "-" +
          run.args.source_digest + "-" + what + ".txt");
}

void write_atomic(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp);
    out << text;
  }
  fs::rename(tmp, path);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Same seed, same source: every search must repeat exactly.  A difference
// means a wall-clock limit leaked into the search.
void check_search_ledger(Run& run) {
  std::string text;
  for (const auto& [label, id] : run.searches) text += label + " " + id.str() + "\n";
  const fs::path path = ledger_path(run, "searches");
  if (fs::exists(path)) {
    const std::string before = read_file(path);
    if (before != text) {
      run.drift = true;
      run.problems.push_back("search drift against an earlier run with seed " +
                             std::to_string(run.args.seed) + ":\n--- before\n" +
                             before + "--- now\n" + text);
    }
  } else {
    write_atomic(path, text);
  }
}

// --- Output ---------------------------------------------------------------------------

std::string detail_json(const Run& run, const std::vector<SpanSummary>& spans,
                        const std::string& overhead) {
  Options o = session_options(run);
  const ExecOptions eo = make_exec_options(o);
  std::string s = "{\"perfbench\": {\n";
  s += bench::provenance_json(o.machine, &eo, "  ");
  s += "  \"run\": {\"workload\": " + json_str(run.args.workload) +
       ", \"seed\": " + std::to_string(run.args.seed) +
       ", \"seconds\": " + json_num(run.args.seconds) +
       ", \"trace\": " + (run.args.trace ? "true" : "false") +
       ", \"nproc\": " + std::to_string(nproc()) +
       ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
       ", \"source_digest\": " + json_str(run.args.source_digest) +
       ", \"dp_state_budget\": " + std::to_string(kStateBudget) +
       ", \"threads\": " + std::to_string(run.threads) +
       ", \"serve_workers\": " + std::to_string(run.threads) +
       ", \"serve_clients\": " + std::to_string(run.threads) +
       ", \"setup_reps\": " + std::to_string(kSetupReps) + "},\n";
  s += "  \"searches\": {";
  bool first = true;
  for (const auto& [label, id] : run.searches) {
    s += std::string(first ? "" : ", ") + json_str(label) +
         ": {\"dp_states\": " + std::to_string(id.states) +
         ", \"tier\": " + json_str(id.tier) +
         ", \"grouping_fp\": " + json_str(id.grouping_fp) +
         ", \"groups\": " + std::to_string(id.groups) + "}";
    first = false;
  }
  s += "},\n  \"notes\": {";
  first = true;
  for (const auto& [k, v] : run.notes) {
    s += std::string(first ? "" : ", ") + json_str(k) + ": " + json_str(v);
    first = false;
  }
  s += "},\n  \"spans\": [";
  first = true;
  for (const SpanSummary& sp : spans) {
    s += std::string(first ? "\n" : ",\n") + "    {\"name\": " + json_str(sp.name) +
         ", \"count\": " + std::to_string(sp.count) +
         ", \"total_ms\": " + json_num(sp.total_s * 1e3) +
         ", \"self_ms\": " + json_num(sp.self_s * 1e3) +
         ", \"unattributed_ms\": " + json_num(sp.unattributed_s * 1e3) +
         ", \"overruns\": " + std::to_string(sp.overruns) + "}";
    first = false;
  }
  s += "],\n  \"tracing_overhead\": " + overhead + ",\n";
  s += "  \"problems\": [";
  first = true;
  for (const std::string& p : run.problems) {
    s += std::string(first ? "" : ", ") + json_str(p);
    first = false;
  }
  s += "]\n}}";
  return s;
}

// Traced-minus-untraced difference of each end-to-end metric, against the
// untraced run of the same workload, seed and source (when one exists).
std::string tracing_overhead(const Run& run) {
  const fs::path path = ledger_path(run, "e2e");
  if (!run.args.trace) {
    std::string text;
    for (const auto& [name, unit] : e2e_catalog())
      text += name + " " + json_num(run.e2e.at(name)) + "\n";
    write_atomic(path, text);
    return "null";
  }
  if (!fs::exists(path)) return "null";
  std::istringstream in(read_file(path));
  std::string name;
  double untraced = 0.0;
  std::string s = "{";
  bool first = true;
  while (in >> name >> untraced) {
    auto it = run.e2e.find(name);
    if (it == run.e2e.end()) continue;
    s += std::string(first ? "" : ", ") + json_str(name) +
         ": {\"untraced\": " + json_num(untraced) +
         ", \"traced\": " + json_num(it->second) +
         ", \"difference\": " + json_num(it->second - untraced) + "}";
    first = false;
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload serve_mixed|batch_large|"
               "open_churn --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--source-digest HEX]\n"
               "       perfbench_driver --self-test | --list-metrics\n");
  return 2;
}

int run_workload(const Args& args) {
  Run run(args);
  run.threads = std::max(1, std::min(4, nproc()));
  std::vector<Frame> ref_frames;
  void (*workload)(Run&, const std::vector<std::vector<Buffer>>&, SetupTimes&) =
      nullptr;
  if (args.workload == "serve_mixed") {
    ref_frames = serve_frames(args.seed);
    workload = serve_mixed;
  } else if (args.workload == "batch_large") {
    for (const std::string& key : pipeline_keys())
      ref_frames.push_back(make_frame(key, kBatchScale, args.seed));
    workload = batch_large;
  } else if (args.workload == "open_churn") {
    for (const std::string& key : pipeline_keys())
      ref_frames.push_back(make_frame(key, kChurnScale, args.seed));
    workload = open_churn;
  } else {
    return usage();
  }

  // References first, while this process has no threads to fork with.
  WallTimer ref_timer;
  const std::vector<std::vector<Buffer>> refs =
      compute_references(ref_frames, run.threads, args.work_dir);
  run.layer["verify.reference_s"] = ref_timer.seconds();
  ref_frames.clear();

  SetupTimes st;
  {
    Scope root(run.rec, args.workload, -1);
    workload(run, refs, st);
  }
  run.e2e["setup_s"] = median(st.rep_s);
  // The search is deterministic CPU work, so host noise only ever adds to
  // it: each pipeline contributes its fastest cold open of the run.
  double cold = 0.0;
  for (const auto& [key, v] : st.cold_open_s)
    cold += *std::min_element(v.begin(), v.end());
  run.e2e["open_cold_s"] = cold;
  run.e2e["peak_rss_mb"] = peak_rss_mb();
  const std::int64_t bad = run.failed + run.mismatched;
  run.e2e["ok_share"] =
      run.attempted > 0
          ? static_cast<double>(run.attempted - bad) / static_cast<double>(run.attempted)
          : 0.0;
  run.layer["verify.mismatches"] = static_cast<double>(run.mismatched);
  run.layer["governor.high_water_mb"] =
      static_cast<double>(ResourceGovernor::instance().high_water()) / (1 << 20);
  auto samples = [](const std::vector<double>& v) {
    std::string s = std::to_string(v.size()) + " samples:";
    for (double x : v) s.append(" ").append(json_num(x));
    return s;
  };
  run.notes["setup_s"] = samples(st.rep_s);
  for (const auto& [key, v] : st.cold_open_s)
    run.notes["open_cold_s." + key] = samples(v);

  check_search_ledger(run);
  const std::string overhead = tracing_overhead(run);
  const std::vector<SpanRec> spans = run.rec.spans();
  const std::vector<SpanSummary> summary = summarize(spans);
  std::int64_t overruns = 0;
  for (const SpanSummary& s : summary) overruns += s.overruns;
  if (overruns > 0)
    run.problems.push_back("benchmark bug: " + std::to_string(overruns) +
                           " span(s) whose children sum past the parent");
  if (args.trace)
    write_atomic(args.work_dir / "traces" /
                     (args.workload + "-seed" + std::to_string(args.seed) + ".json"),
                 spans_to_chrome_json(spans));

  std::vector<Metric> metrics;
  const Catalog& cat = args.trace ? layer_catalog() : e2e_catalog();
  const std::map<std::string, double>& vals = args.trace ? run.layer : run.e2e;
  for (const auto& [name, unit] : cat) {
    auto it = vals.find(name);
    metrics.push_back({name, it == vals.end() ? 0.0 : it->second, unit});
  }
  const bool correct = run.mismatched == 0 && run.failed == 0 && !run.drift &&
                       run.attempted > 0;
  for (const std::string& p : run.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  std::printf("%s\n", detail_json(run, summary, overhead).c_str());
  std::printf("%s\n", result_json(correct, run.attempted, bad, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--self-test") {
        const int failures = self_test();
        for (const Catalog* c : {&e2e_catalog(), &layer_catalog()})
          for (const auto& [name, unit] : *c)
            if (!valid_metric_name(name)) {
              std::fprintf(stderr, "self-test FAILED: bad metric name %s\n", name.c_str());
              return 1;
            }
        std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
        return failures == 0 ? 0 : 1;
      } else if (a == "--list-metrics") {
        for (const auto& [name, unit] : e2e_catalog())
          std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
        for (const auto& [name, unit] : layer_catalog())
          std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
        return 0;
      } else if (a == "--workload") {
        args.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--work-dir") {
        args.work_dir = value();
      } else if (a == "--source-digest") {
        args.source_digest = value();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) return usage();
  try {
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 3;
  }
}
