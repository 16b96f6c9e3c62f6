#include "layers.hpp"

#include <algorithm>
#include <atomic>

#include "summary.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> tl_open;  // open span ids, innermost last
thread_local double tl_run_epoch = 0.0;  // recorder time of on_run_begin
thread_local std::string tl_run_key;     // context of the run on this thread

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

}  // namespace

std::uint64_t SpanRecorder::begin(const std::string& name,
                                  std::int64_t request, std::uint64_t parent) {
  if (!enabled_) return 0;
  SpanRec s;
  s.parent = parent != 0 ? parent : current();
  s.name = name;
  s.request = request;
  s.thread = thread_number();
  s.t0 = now();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = spans_.size() + 1;
    s.id = id;
    spans_.push_back(std::move(s));
  }
  tl_open.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].t1 = t;
  }
  auto it = std::find(tl_open.rbegin(), tl_open.rend(), id);
  if (it != tl_open.rend()) tl_open.erase(std::next(it).base());
}

std::uint64_t SpanRecorder::add(const std::string& name, std::uint64_t parent,
                                double t0, double t1, std::int64_t request) {
  if (!enabled_) return 0;
  SpanRec s;
  s.parent = parent;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.request = request;
  s.thread = thread_number();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t SpanRecorder::current() {
  return tl_open.empty() ? 0 : tl_open.back();
}

std::vector<SpanRec> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanSummary> summarize(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<Interval>> children(spans.size() + 1);
  for (const SpanRec& s : spans)
    if (s.parent != 0 && s.t1 >= s.t0)
      children[s.parent].push_back({s.t0, s.t1});
  std::map<std::string, SpanSummary> by_name;
  for (const SpanRec& s : spans) {
    if (s.t1 < s.t0) continue;  // never closed
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    const Residual r = residual(Interval{s.t0, s.t1}, children[s.id]);
    ++sum.count;
    sum.total_s += r.parent;
    sum.self_s += r.unattributed;
    if (!children[s.id].empty()) {
      sum.unattributed_s += r.unattributed;
      if (r.overrun) ++sum.overruns;
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  std::sort(out.begin(), out.end(), [](const SpanSummary& a, const SpanSummary& b) {
    return a.total_s > b.total_s;
  });
  return out;
}

std::string spans_to_chrome_json(const std::vector<SpanRec>& spans) {
  std::string s = "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanRec& r : spans) {
    if (r.t1 < r.t0) continue;
    if (!first) s += ",\n";
    first = false;
    s += "{\"name\": " + json_str(r.name) +
         ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(r.thread) +
         ", \"ts\": " + json_num(r.t0 * 1e6) +
         ", \"dur\": " + json_num((r.t1 - r.t0) * 1e6) +
         ", \"args\": {\"id\": " + std::to_string(r.id) +
         ", \"parent\": " + std::to_string(r.parent) +
         ", \"request\": " + std::to_string(r.request) + "}}";
  }
  return s + "\n]}\n";
}

SearchFacts facts_from_attempts(
    const std::vector<observe::ScheduleAttempt>& attempts) {
  SearchFacts f;
  for (const observe::ScheduleAttempt& a : attempts) {
    f.states += a.states;
    f.seconds += a.seconds;
    if (a.succeeded) {
      f.tier = a.tier;
      f.winning_states = a.states;
    }
  }
  return f;
}

// Schedule attempts and cache events stream the moment they resolve, so
// each becomes a child span of the open that made it, ending now.  The
// "cache" pseudo-attempt of a warm open repeats the probe's time and gets
// no span of its own.
void LayerSink::on_schedule_attempt(const observe::ScheduleAttempt& at) {
  const double t = rec_.now();
  if (at.tier != "cache")
    rec_.add("search." + at.tier, SpanRecorder::current(), t - at.seconds, t, -1);
  std::lock_guard<std::mutex> lock(mu_);
  attempts_[context_].push_back(at);
}

void LayerSink::on_run_begin(const observe::RunMeta& meta) {
  (void)meta;
  tl_run_epoch = rec_.now();
  std::lock_guard<std::mutex> lock(mu_);
  tl_run_key = context_;
}

void LayerSink::on_group_end(const observe::GroupRecord& g) {
  rec_.add("group", SpanRecorder::current(), tl_run_epoch + g.t_begin,
           tl_run_epoch + g.t_end, g.index);
  std::lock_guard<std::mutex> lock(mu_);
  RuntimeTotals& t = runtime_[tl_run_key];
  t.group_seconds += g.seconds;
  t.tiles_run += g.tiles_run;
  t.interior_tiles += g.interior_tiles;
  t.computed += g.computed_elems;
  t.owned += g.owned_elems;
  t.tile_queue_wait += g.queue_wait_seconds;
}

void LayerSink::on_run_end(const observe::RunRecord& run) {
  std::lock_guard<std::mutex> lock(mu_);
  RuntimeTotals& t = runtime_[tl_run_key];
  t.run_seconds += run.seconds;
}

void LayerSink::on_cache_event(const observe::CacheEvent& ev) {
  const double t = rec_.now();
  rec_.add("findb." + ev.action, SpanRecorder::current(), t - ev.seconds, t, -1);
}

void LayerSink::set_context(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  context_ = label;
}

std::vector<observe::ScheduleAttempt> LayerSink::take_attempts(
    const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<observe::ScheduleAttempt> out = std::move(attempts_[label]);
  attempts_.erase(label);
  return out;
}

std::map<std::string, RuntimeTotals> LayerSink::runtime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runtime_;
}

void LayerSink::clear_runtime() {
  std::lock_guard<std::mutex> lock(mu_);
  runtime_.clear();
}

}  // namespace perfbench
