#include "storage/findb.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <list>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "storage/lock.hpp"
#include "support/fault.hpp"
#include "support/fingerprint.hpp"

namespace fusedp::findb {

namespace {

constexpr const char* kMagic = "fusedp-findb";
constexpr const char* kVersion = "v1";
constexpr const char* kLockFile = "findb.lock";
constexpr const char* kRecordExt = ".fdb";
// A hard ceiling on what we will even read into memory: the biggest honest
// record is a schedule for a few dozen stages plus provenance — megabytes
// mean someone else's file or an attack, and either way we refuse.
constexpr std::int64_t kMaxRecordBytes = std::int64_t{4} << 20;

std::string join(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

std::string errno_str() { return std::strerror(errno); }

// Makes a just-committed rename durable: without syncing the directory the
// new directory entry can be lost on power failure even though the file's
// bytes were fsync'd.  Best effort — the record is already visible to every
// live reader, so a failure here only narrows durability, never correctness
// (a lost entry reads as a clean miss on the next boot).
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

bool is_record_file(const std::string& name) {
  // "<16 hex>-<16 hex>-<16 hex>.fdb" and nothing else.
  const std::string ext = kRecordExt;
  if (name.size() != 50 + ext.size()) return false;
  if (name.compare(50, ext.size(), ext) != 0) return false;
  CacheKey k;
  return CacheKey::parse_stem(name.substr(0, 50), &k);
}

bool is_temp_file(const std::string& name) {
  return name.find(".fdb.tmp.") != std::string::npos;
}

// Reads a whole file.  Distinguishes "absent" from "unreadable".
enum class ReadFile { kOk, kAbsent, kError, kTooBig };
ReadFile read_file(const std::string& path, std::string* out,
                   std::string* err) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return ReadFile::kAbsent;
    *err = "open " + path + ": " + errno_str();
    return ReadFile::kError;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *err = "fstat " + path + ": " + errno_str();
    ::close(fd);
    return ReadFile::kError;
  }
  if (st.st_size > kMaxRecordBytes) {
    *err = "record exceeds " + std::to_string(kMaxRecordBytes) + " bytes";
    ::close(fd);
    return ReadFile::kTooBig;
  }
  out->resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out->size()) {
    const ssize_t n =
        ::read(fd, out->data() + got, out->size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      *err = "read " + path + ": " + errno_str();
      ::close(fd);
      return ReadFile::kError;
    }
    if (n == 0) break;  // concurrently truncated; CRC will catch it
    got += static_cast<std::size_t>(n);
  }
  out->resize(got);
  ::close(fd);
  return ReadFile::kOk;
}

bool ensure_dir(const std::string& dir, std::string* err) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return true;
    *err = dir + " exists and is not a directory";
    return false;
  }
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return true;
  *err = "mkdir " + dir + ": " + errno_str();
  return false;
}

// --- payload line parsing helpers ---------------------------------------

// Pulls the next '\n'-terminated line out of `s` starting at `pos`.
bool next_line(const std::string& s, std::size_t* pos, std::string* line) {
  if (*pos >= s.size()) return false;
  const std::size_t nl = s.find('\n', *pos);
  if (nl == std::string::npos) {
    *line = s.substr(*pos);
    *pos = s.size();
  } else {
    *line = s.substr(*pos, nl - *pos);
    *pos = nl + 1;
  }
  return true;
}

bool split_kv(const std::string& line, const std::string& keyword,
              std::string* rest) {
  if (line.compare(0, keyword.size(), keyword) != 0) return false;
  if (line.size() == keyword.size()) {
    rest->clear();
    return true;
  }
  if (line[keyword.size()] != ' ') return false;
  *rest = line.substr(keyword.size() + 1);
  return true;
}

bool parse_doubles(const std::string& s, std::size_t expect,
                   std::vector<double>* out) {
  out->clear();
  std::istringstream is(s);
  double v;
  while (is >> v) out->push_back(v);
  return out->size() == expect;
}

// --- the in-process LRU memory tier -------------------------------------
//
// Process-wide so every Session (and every PipelineService worker) sharing
// a cache directory shares the hot tier.  Keyed by dir + "/" + stem, so two
// FindDb handles on different directories never alias.  A plain mutex: the
// critical section is a map lookup + list splice, far cheaper than the disk
// probe it replaces.

struct MemoryTier {
  std::mutex mu;
  // Most-recent first.
  std::list<std::pair<std::string, CacheRecord>> lru;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, CacheRecord>>::iterator>
      index;

  bool get(const std::string& key, CacheRecord* rec) {
    std::lock_guard<std::mutex> g(mu);
    auto it = index.find(key);
    if (it == index.end()) return false;
    lru.splice(lru.begin(), lru, it->second);
    *rec = it->second->second;
    return true;
  }

  void put(const std::string& key, const CacheRecord& rec, int capacity) {
    if (capacity <= 0) return;
    std::lock_guard<std::mutex> g(mu);
    auto it = index.find(key);
    if (it != index.end()) {
      it->second->second = rec;
      lru.splice(lru.begin(), lru, it->second);
      return;
    }
    lru.emplace_front(key, rec);
    index[key] = lru.begin();
    while (static_cast<int>(lru.size()) > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
    }
  }

  void erase(const std::string& key) {
    std::lock_guard<std::mutex> g(mu);
    auto it = index.find(key);
    if (it == index.end()) return;
    lru.erase(it->second);
    index.erase(it);
  }

  // Drops every entry belonging to one cache directory (keys are
  // dir + "/" + stem), leaving other directories' hot entries alone —
  // the tier is process-wide, but eviction must stay per-FindDb.
  void erase_prefix(const std::string& prefix) {
    std::lock_guard<std::mutex> g(mu);
    for (auto it = lru.begin(); it != lru.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        index.erase(it->first);
        it = lru.erase(it);
      } else {
        ++it;
      }
    }
  }

  void clear() {
    std::lock_guard<std::mutex> g(mu);
    lru.clear();
    index.clear();
  }
};

MemoryTier& memory_tier() {
  static MemoryTier* tier = new MemoryTier();  // leaked: outlives all users
  return *tier;
}

void bump(std::atomic<std::int64_t>& counter, std::int64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

const char* cache_mode_name(CacheMode mode) {
  switch (mode) {
    case CacheMode::kOff: return "off";
    case CacheMode::kRead: return "read";
    case CacheMode::kReadWrite: return "readwrite";
  }
  return "?";
}

const char* probe_outcome_name(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kHit: return "hit";
    case ProbeOutcome::kMiss: return "miss";
    case ProbeOutcome::kCorrupt: return "corrupt";
    case ProbeOutcome::kTruncated: return "truncated";
    case ProbeOutcome::kVersionSkew: return "version-skew";
    case ProbeOutcome::kStaleSha: return "stale-sha";
    case ProbeOutcome::kKeyMismatch: return "key-mismatch";
    case ProbeOutcome::kLockTimeout: return "lock-timeout";
    case ProbeOutcome::kIoError: return "io-error";
    case ProbeOutcome::kBypass: return "bypass";
  }
  return "?";
}

bool outcome_evicts(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kCorrupt:
    case ProbeOutcome::kTruncated:
    case ProbeOutcome::kVersionSkew:
    case ProbeOutcome::kStaleSha:
    case ProbeOutcome::kKeyMismatch:
      return true;
    default:
      return false;
  }
}

std::string CacheKey::stem() const {
  return hex64(pipeline_fp) + "-" + hex64(machine_fp) + "-" +
         hex64(options_fp);
}

bool CacheKey::parse_stem(const std::string& stem, CacheKey* out) {
  if (stem.size() != 50 || stem[16] != '-' || stem[33] != '-') return false;
  CacheKey k;
  if (!parse_hex64(stem.substr(0, 16), &k.pipeline_fp)) return false;
  if (!parse_hex64(stem.substr(17, 16), &k.machine_fp)) return false;
  if (!parse_hex64(stem.substr(34, 16), &k.options_fp)) return false;
  if (out != nullptr) *out = k;
  return true;
}

// --- wire format ---------------------------------------------------------

std::string encode_record(const CacheKey& key, const CacheRecord& rec) {
  std::ostringstream payload;
  payload << "pipeline " << rec.pipeline << "\n";
  payload << "key " << hex64(key.pipeline_fp) << " " << hex64(key.machine_fp)
          << " " << hex64(key.options_fp) << "\n";
  payload << "git_sha " << rec.git_sha << "\n";
  payload << "created_unix " << rec.created_unix << "\n";
  payload << "rung " << rec.rung << "\n";
  char buf[64];
  payload << "predicted " << rec.predicted.size();
  for (double v : rec.predicted) {
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    payload << buf;
  }
  payload << "\n";
  payload << "measured_ms " << rec.measured_ms.size();
  for (double v : rec.measured_ms) {
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    payload << buf;
  }
  payload << "\n";
  // Schedule text goes last, framed by an explicit line count so embedded
  // blank lines or a keyword-looking line cannot confuse the parser.
  std::int64_t lines = 0;
  for (char c : rec.schedule_text)
    if (c == '\n') ++lines;
  if (!rec.schedule_text.empty() && rec.schedule_text.back() != '\n') ++lines;
  payload << "schedule_lines " << lines << "\n";
  payload << rec.schedule_text;
  if (!rec.schedule_text.empty() && rec.schedule_text.back() != '\n')
    payload << "\n";

  const std::string body = payload.str();
  std::ostringstream file;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", crc32(body));
  file << kMagic << " " << kVersion << "\n";
  file << "crc32 " << crc << "\n";
  file << "bytes " << body.size() << "\n";
  file << body;
  return file.str();
}

ProbeOutcome decode_record(const std::string& bytes,
                           const CacheKey* expect_key, CacheRecord* rec,
                           std::string* detail) {
  auto bad = [&](ProbeOutcome o, const std::string& why) {
    if (detail != nullptr) *detail = why;
    return o;
  };

  std::size_t pos = 0;
  std::string line, rest;

  // Container header: magic+version, crc, byte count.
  if (!next_line(bytes, &pos, &line))
    return bad(ProbeOutcome::kTruncated, "empty file");
  {
    std::istringstream is(line);
    std::string magic, version;
    is >> magic >> version;
    if (magic != kMagic)
      return bad(ProbeOutcome::kCorrupt, "bad magic: " + line);
    if (version != kVersion)
      return bad(ProbeOutcome::kVersionSkew,
                 "format version " + version + " (want " + kVersion + ")");
  }
  if (!next_line(bytes, &pos, &line) || !split_kv(line, "crc32", &rest))
    return bad(ProbeOutcome::kTruncated, "missing crc32 header");
  std::uint32_t want_crc = 0;
  {
    if (rest.size() != 8) return bad(ProbeOutcome::kCorrupt, "bad crc32 field");
    for (char c : rest) {
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else return bad(ProbeOutcome::kCorrupt, "bad crc32 field");
      want_crc = (want_crc << 4) | static_cast<std::uint32_t>(d);
    }
  }
  if (!next_line(bytes, &pos, &line) || !split_kv(line, "bytes", &rest))
    return bad(ProbeOutcome::kTruncated, "missing bytes header");
  std::int64_t want_bytes = -1;
  {
    std::istringstream is(rest);
    if (!(is >> want_bytes) || want_bytes < 0 || want_bytes > kMaxRecordBytes)
      return bad(ProbeOutcome::kCorrupt, "bad bytes field: " + rest);
  }

  // Truncation check comes before CRC so a partial write (crash mid-copy)
  // reports as kTruncated, not generically corrupt.
  const std::int64_t have =
      static_cast<std::int64_t>(bytes.size()) - static_cast<std::int64_t>(pos);
  if (have < want_bytes)
    return bad(ProbeOutcome::kTruncated,
               "payload " + std::to_string(have) + " of " +
                   std::to_string(want_bytes) + " bytes");
  // Strict framing: the declared byte count must account for the whole
  // file.  Trailing bytes past the CRC-covered body mean concatenated or
  // doctored content, and accepting them would let junk ride in on a
  // "clean" hit.
  if (have > want_bytes)
    return bad(ProbeOutcome::kCorrupt,
               std::to_string(have - want_bytes) +
                   " trailing bytes after the declared payload");
  const std::string body = bytes.substr(pos, static_cast<std::size_t>(want_bytes));
  if (crc32(body) != want_crc)
    return bad(ProbeOutcome::kCorrupt, "crc32 mismatch");

  // Payload fields, in fixed order.
  CacheRecord r;
  pos = 0;
  if (!next_line(body, &pos, &line) || !split_kv(line, "pipeline", &r.pipeline))
    return bad(ProbeOutcome::kCorrupt, "missing pipeline field");
  if (!next_line(body, &pos, &line) || !split_kv(line, "key", &rest))
    return bad(ProbeOutcome::kCorrupt, "missing key field");
  {
    std::istringstream is(rest);
    std::string p, m, o;
    CacheKey k;
    if (!(is >> p >> m >> o) || !parse_hex64(p, &k.pipeline_fp) ||
        !parse_hex64(m, &k.machine_fp) || !parse_hex64(o, &k.options_fp))
      return bad(ProbeOutcome::kCorrupt, "bad key field: " + rest);
    if (expect_key != nullptr && !(k == *expect_key))
      return bad(ProbeOutcome::kKeyMismatch,
                 "record key " + k.stem() + " != file key " +
                     expect_key->stem());
  }
  if (!next_line(body, &pos, &line) || !split_kv(line, "git_sha", &r.git_sha))
    return bad(ProbeOutcome::kCorrupt, "missing git_sha field");
  if (!next_line(body, &pos, &line) ||
      !split_kv(line, "created_unix", &rest))
    return bad(ProbeOutcome::kCorrupt, "missing created_unix field");
  {
    std::istringstream is(rest);
    if (!(is >> r.created_unix))
      return bad(ProbeOutcome::kCorrupt, "bad created_unix: " + rest);
  }
  if (!next_line(body, &pos, &line) || !split_kv(line, "rung", &r.rung))
    return bad(ProbeOutcome::kCorrupt, "missing rung field");

  auto parse_vec = [&](const char* keyword,
                       std::vector<double>* out) -> const char* {
    if (!next_line(body, &pos, &line) || !split_kv(line, keyword, &rest))
      return "missing field";
    std::istringstream is(rest);
    std::int64_t n = -1;
    if (!(is >> n) || n < 0 || n > (1 << 16)) return "bad count";
    std::string tail;
    std::getline(is, tail);
    if (!parse_doubles(tail, static_cast<std::size_t>(n), out))
      return "bad values";
    return nullptr;
  };
  if (const char* why = parse_vec("predicted", &r.predicted))
    return bad(ProbeOutcome::kCorrupt, std::string("predicted: ") + why);
  if (const char* why = parse_vec("measured_ms", &r.measured_ms))
    return bad(ProbeOutcome::kCorrupt, std::string("measured_ms: ") + why);

  if (!next_line(body, &pos, &line) ||
      !split_kv(line, "schedule_lines", &rest))
    return bad(ProbeOutcome::kCorrupt, "missing schedule_lines field");
  std::int64_t sched_lines = -1;
  {
    std::istringstream is(rest);
    if (!(is >> sched_lines) || sched_lines < 0 || sched_lines > (1 << 16))
      return bad(ProbeOutcome::kCorrupt, "bad schedule_lines: " + rest);
  }
  std::ostringstream sched;
  for (std::int64_t i = 0; i < sched_lines; ++i) {
    if (!next_line(body, &pos, &line))
      return bad(ProbeOutcome::kCorrupt, "schedule text shorter than declared");
    sched << line << "\n";
  }
  r.schedule_text = sched.str();

  if (rec != nullptr) *rec = std::move(r);
  return ProbeOutcome::kHit;
}

// --- FindDb --------------------------------------------------------------

FindDb::FindDb(FindbOptions opts) : opts_(std::move(opts)) {}

CacheCounters FindDb::counters() const {
  const auto get = [](const std::atomic<std::int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const auto& c = counters_;
  return {get(c.hits),          get(c.memory_hits),    get(c.misses),
          get(c.bad_records),   get(c.lock_timeouts),  get(c.io_errors),
          get(c.stores),        get(c.store_failures), get(c.evictions)};
}

void FindDb::note(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kHit: bump(counters_.hits); break;
    case ProbeOutcome::kMiss: bump(counters_.misses); break;
    case ProbeOutcome::kLockTimeout: bump(counters_.lock_timeouts); break;
    case ProbeOutcome::kIoError: bump(counters_.io_errors); break;
    case ProbeOutcome::kBypass: break;
    default: bump(counters_.bad_records); break;
  }
}

ProbeResult FindDb::probe(const CacheKey& key, const Deadline* deadline) {
  WallTimer timer;
  ProbeResult res;
  if (opts_.mode == CacheMode::kOff) {
    res.outcome = ProbeOutcome::kBypass;
    res.detail = "cache mode off";
    res.seconds = timer.seconds();
    return res;
  }

  const std::string mem_key = join(opts_.dir, key.stem());
  if (opts_.memory_entries > 0 &&
      memory_tier().get(mem_key, &res.record)) {
    res.outcome = ProbeOutcome::kHit;
    res.from_memory = true;
    bump(counters_.hits);
    bump(counters_.memory_hits);
    res.seconds = timer.seconds();
    return res;
  }

  res = probe_disk(key, deadline);
  note(res.outcome);
  if (res.outcome == ProbeOutcome::kHit && opts_.memory_entries > 0)
    memory_tier().put(mem_key, res.record, opts_.memory_entries);
  if (outcome_evicts(res.outcome) && opts_.mode == CacheMode::kReadWrite)
    evict_bad_record(key);
  res.seconds = timer.seconds();
  return res;
}

ProbeResult FindDb::probe_disk(const CacheKey& key, const Deadline* deadline) {
  ProbeResult res;
  auto fail = [&](ProbeOutcome o, const std::string& why) {
    res.outcome = o;
    res.detail = why;
    return res;
  };

  // A probe against a deadline that is already gone must not touch the disk
  // at all — the caller needs every remaining microsecond for the search.
  if (deadline != nullptr && deadline->armed() && deadline->expired())
    return fail(ProbeOutcome::kLockTimeout, "deadline expired before probe");

  const std::string path = join(opts_.dir, key.stem() + kRecordExt);

  // Cheap existence test before paying for the lock.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return fail(ProbeOutcome::kMiss, "");
    return fail(ProbeOutcome::kIoError, "stat " + path + ": " + errno_str());
  }

  auto lock = storage::FileLock::acquire(join(opts_.dir, kLockFile),
                                         storage::FileLock::Type::kShared,
                                         opts_.lock_timeout_seconds, deadline);
  if (!lock.ok()) {
    if (lock.code() == ErrorCode::kDeadlineExceeded)
      return fail(ProbeOutcome::kLockTimeout, lock.error().what());
    return fail(ProbeOutcome::kIoError, lock.error().what());
  }

  std::string bytes, err;
  try {
    FUSEDP_FAULT_POINT("findb.read");
    const ReadFile rf = read_file(path, &bytes, &err);
    if (rf == ReadFile::kAbsent) return fail(ProbeOutcome::kMiss, "");
    if (rf == ReadFile::kError) return fail(ProbeOutcome::kIoError, err);
    if (rf == ReadFile::kTooBig) return fail(ProbeOutcome::kCorrupt, err);
  } catch (const Error& e) {
    return fail(ProbeOutcome::kIoError,
                std::string("injected fault: ") + e.what());
  }

  std::string detail;
  const ProbeOutcome out = decode_record(bytes, &key, &res.record, &detail);
  if (out != ProbeOutcome::kHit) return fail(out, detail);

  // Build provenance: a schedule found by different code is not trusted,
  // even if the structural fingerprints happen to agree.
  if (!opts_.git_sha.empty() && res.record.git_sha != opts_.git_sha)
    return fail(ProbeOutcome::kStaleSha, "record built at " +
                                             res.record.git_sha + ", this is " +
                                             opts_.git_sha);

  res.outcome = ProbeOutcome::kHit;
  return res;
}

Result<bool> FindDb::store(const CacheKey& key, const CacheRecord& rec,
                           const Deadline* deadline) {
  if (opts_.mode != CacheMode::kReadWrite) {
    bump(counters_.store_failures);
    return Result<bool>::failure(ErrorCode::kInvalidArgument,
                                 "FindDb::store: cache mode is not readwrite");
  }
  auto io_fail = [&](const std::string& why) {
    bump(counters_.store_failures);
    return Result<bool>::failure(ErrorCode::kIoError, "FindDb::store: " + why);
  };

  std::string err;
  if (!ensure_dir(opts_.dir, &err)) return io_fail(err);

  auto lock = storage::FileLock::acquire(join(opts_.dir, kLockFile),
                                         storage::FileLock::Type::kExclusive,
                                         opts_.lock_timeout_seconds, deadline);
  if (!lock.ok()) {
    bump(counters_.store_failures);
    bump(counters_.lock_timeouts);
    return Result<bool>::failure(lock.code(), lock.error().what());
  }

  const std::string stem = key.stem();
  const std::string final_path = join(opts_.dir, stem + kRecordExt);
  // pid in the temp name keeps two processes from colliding even before
  // they hold the lock (belt and braces: we do hold it here).
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));

  try {
    FUSEDP_FAULT_POINT("findb.write");
  } catch (const Error& e) {
    bump(counters_.store_failures);
    return Result<bool>::failure(ErrorCode::kFaultInjected, e.what());
  }

  const std::string bytes = encode_record(key, rec);
  if (static_cast<std::int64_t>(bytes.size()) > kMaxRecordBytes) {
    // Never write a record the reader's size cap would refuse to load.
    bump(counters_.store_failures);
    return Result<bool>::failure(
        ErrorCode::kInvalidArgument,
        "FindDb::store: record " + std::to_string(bytes.size()) +
            " bytes exceeds the " + std::to_string(kMaxRecordBytes) +
            "-byte cap");
  }
  const int fd =
      ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return io_fail("open " + tmp_path + ": " + errno_str());
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = "write " + tmp_path + ": " + errno_str();
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return io_fail(why);
    }
    put += static_cast<std::size_t>(n);
  }
  // fsync before rename: after the rename lands, the bytes must be durable,
  // or a crash could leave a named-but-empty record (which CRC would catch,
  // but why create the window).
  if (::fsync(fd) != 0) {
    const std::string why = "fsync " + tmp_path + ": " + errno_str();
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return io_fail(why);
  }
  ::close(fd);

  // The crash window under test: a process killed here leaves a fully
  // written temp file and no (or the previous) record — readers are
  // unaffected and compaction sweeps the debris.
  try {
    FUSEDP_FAULT_POINT("findb.commit");
  } catch (const Error& e) {
    bump(counters_.store_failures);
    return Result<bool>::failure(ErrorCode::kFaultInjected, e.what());
  }

  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const std::string why = "rename to " + final_path + ": " + errno_str();
    ::unlink(tmp_path.c_str());
    return io_fail(why);
  }
  fsync_dir(opts_.dir);

  bump(counters_.stores);
  if (opts_.memory_entries > 0)
    memory_tier().put(join(opts_.dir, stem), rec, opts_.memory_entries);
  compact_locked();
  return Result<bool>(true);
}

void FindDb::evict_bad_record(const CacheKey& key) {
  auto lock = storage::FileLock::acquire(join(opts_.dir, kLockFile),
                                         storage::FileLock::Type::kExclusive,
                                         opts_.lock_timeout_seconds, nullptr);
  if (!lock.ok()) return;  // best effort; next probe will retry
  if (::unlink(join(opts_.dir, key.stem() + kRecordExt).c_str()) == 0)
    bump(counters_.evictions);
  memory_tier().erase(join(opts_.dir, key.stem()));
}

Result<int> FindDb::evict(const CacheKey& key) {
  if (opts_.mode != CacheMode::kReadWrite)
    return Result<int>::failure(ErrorCode::kInvalidArgument,
                                "FindDb::evict: cache mode is not readwrite");
  auto lock = storage::FileLock::acquire(join(opts_.dir, kLockFile),
                                         storage::FileLock::Type::kExclusive,
                                         opts_.lock_timeout_seconds, nullptr);
  if (!lock.ok())
    return Result<int>::failure(lock.code(), lock.error().what());
  int removed = 0;
  if (::unlink(join(opts_.dir, key.stem() + kRecordExt).c_str()) == 0)
    removed = 1;
  else if (errno != ENOENT)
    return Result<int>::failure(ErrorCode::kIoError,
                                "unlink: " + errno_str());
  memory_tier().erase(join(opts_.dir, key.stem()));
  bump(counters_.evictions, removed);
  return Result<int>(removed);
}

Result<int> FindDb::evict_all() {
  if (opts_.mode != CacheMode::kReadWrite)
    return Result<int>::failure(
        ErrorCode::kInvalidArgument,
        "FindDb::evict_all: cache mode is not readwrite");
  auto lock = storage::FileLock::acquire(join(opts_.dir, kLockFile),
                                         storage::FileLock::Type::kExclusive,
                                         opts_.lock_timeout_seconds, nullptr);
  if (!lock.ok())
    return Result<int>::failure(lock.code(), lock.error().what());
  DIR* d = ::opendir(opts_.dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Result<int>(0);
    return Result<int>::failure(ErrorCode::kIoError,
                                "opendir " + opts_.dir + ": " + errno_str());
  }
  int removed = 0;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (!is_record_file(name) && !is_temp_file(name)) continue;
    if (::unlink(join(opts_.dir, name).c_str()) == 0) ++removed;
  }
  ::closedir(d);
  // Scope the memory-tier wipe to this cache directory: the tier is shared
  // process-wide, and sessions on *other* cache_dirs must keep their
  // still-valid hot entries.
  memory_tier().erase_prefix(join(opts_.dir, ""));
  bump(counters_.evictions, removed);
  return Result<int>(removed);
}

Result<std::vector<EntryInfo>> FindDb::scan(bool repair) {
  using Out = std::vector<EntryInfo>;
  if (repair && opts_.mode != CacheMode::kReadWrite)
    return Result<Out>::failure(
        ErrorCode::kInvalidArgument,
        "FindDb::scan: repair requires readwrite mode");
  auto lock = storage::FileLock::acquire(
      join(opts_.dir, kLockFile),
      repair ? storage::FileLock::Type::kExclusive
             : storage::FileLock::Type::kShared,
      opts_.lock_timeout_seconds, nullptr);
  if (!lock.ok())
    return Result<Out>::failure(lock.code(), lock.error().what());

  DIR* d = ::opendir(opts_.dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Result<Out>(Out{});
    return Result<Out>::failure(ErrorCode::kIoError,
                                "opendir " + opts_.dir + ": " + errno_str());
  }
  Out entries;
  std::vector<std::string> debris;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (is_temp_file(name)) {
      debris.push_back(name);
      continue;
    }
    if (!is_record_file(name)) continue;
    EntryInfo info;
    info.file = name;
    CacheKey::parse_stem(name.substr(0, 50), &info.key);
    const std::string path = join(opts_.dir, name);
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
      info.bytes = static_cast<std::int64_t>(st.st_size);
      info.mtime_unix = static_cast<std::int64_t>(st.st_mtime);
    }
    std::string bytes, err, detail;
    const ReadFile rf = read_file(path, &bytes, &err);
    if (rf != ReadFile::kOk) {
      info.problem = "io-error: " + err;
    } else {
      const ProbeOutcome out =
          decode_record(bytes, &info.key, &info.record, &detail);
      if (out == ProbeOutcome::kHit) {
        if (!opts_.git_sha.empty() && info.record.git_sha != opts_.git_sha) {
          info.problem = "stale-sha: record built at " + info.record.git_sha;
        } else {
          info.valid = true;
        }
      } else {
        info.problem = std::string(probe_outcome_name(out)) + ": " + detail;
      }
    }
    entries.push_back(std::move(info));
  }
  ::closedir(d);

  if (repair) {
    for (const std::string& name : debris)
      if (::unlink(join(opts_.dir, name).c_str()) == 0)
        bump(counters_.evictions);
    for (const EntryInfo& info : entries) {
      if (info.valid) continue;
      if (::unlink(join(opts_.dir, info.file).c_str()) == 0) {
        bump(counters_.evictions);
        memory_tier().erase(join(opts_.dir, info.file.substr(0, 50)));
      }
    }
  }

  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return a.file < b.file;
            });
  return Result<Out>(std::move(entries));
}

void FindDb::compact_locked() {
  if (opts_.max_entries <= 0 && opts_.max_bytes <= 0) return;
  DIR* d = ::opendir(opts_.dir.c_str());
  if (d == nullptr) return;
  struct Item {
    std::string name;
    std::int64_t bytes;
    std::int64_t mtime;
  };
  std::vector<Item> items;
  std::int64_t total_bytes = 0;
  const std::int64_t now = static_cast<std::int64_t>(::time(nullptr));
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const std::string path = join(opts_.dir, name);
    if (is_temp_file(name)) {
      // Temp debris older than a minute is from a dead writer: our own
      // in-flight temps are younger (we hold the exclusive lock) and live
      // writers rename within milliseconds.
      struct stat st{};
      if (::stat(path.c_str(), &st) == 0 &&
          now - static_cast<std::int64_t>(st.st_mtime) > 60)
        ::unlink(path.c_str());
      continue;
    }
    if (!is_record_file(name)) continue;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    items.push_back({name, static_cast<std::int64_t>(st.st_size),
                     static_cast<std::int64_t>(st.st_mtime)});
    total_bytes += static_cast<std::int64_t>(st.st_size);
  }
  ::closedir(d);

  // Oldest-first; ties broken by name for determinism.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.name < b.name;
  });
  std::size_t victim = 0;
  std::int64_t count = static_cast<std::int64_t>(items.size());
  while (victim < items.size() &&
         ((opts_.max_entries > 0 && count > opts_.max_entries) ||
          (opts_.max_bytes > 0 && total_bytes > opts_.max_bytes))) {
    const Item& it = items[victim++];
    if (::unlink(join(opts_.dir, it.name).c_str()) == 0) {
      bump(counters_.evictions);
      memory_tier().erase(join(opts_.dir, it.name.substr(0, 50)));
    }
    --count;
    total_bytes -= it.bytes;
  }
}

void FindDb::clear_memory_tier() { memory_tier().clear(); }

}  // namespace fusedp::findb
