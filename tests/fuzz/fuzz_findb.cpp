// Fuzz target: the find-db record decoder (findb::decode_record).
//
// Record files are untrusted bytes: another build, a crash mid-write or a
// hostile edit can leave anything in the cache directory.  The contract
// under test: every input resolves to a coded ProbeOutcome without
// crashing or throwing, checking the embedded key only ever turns an
// outcome into kKeyMismatch, and any input that decodes as a hit
// re-encodes with encode_record and decodes again to an equal record.
// Build with -fsanitize=fuzzer under Clang (FUSEDP_SANITIZE); elsewhere it
// builds as a standalone program that replays the corpus files it is given.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "storage/findb.hpp"

using namespace fusedp;
using findb::CacheKey;
using findb::CacheRecord;
using findb::ProbeOutcome;

namespace {

// Doubles compare by bits, so a NaN or a -0.0 that survives decoding must
// survive the round trip exactly too.
bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_record(const CacheRecord& a, const CacheRecord& b) {
  return a.pipeline == b.pipeline && a.git_sha == b.git_sha &&
         a.rung == b.rung && a.created_unix == b.created_unix &&
         same_doubles(a.predicted, b.predicted) &&
         same_doubles(a.measured_ms, b.measured_ms) &&
         a.schedule_text == b.schedule_text;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // The key the seed corpus was encoded under.
  static const CacheKey kKey{0x0123456789abcdefull, 0xfedcba9876543210ull,
                             0x00000000deadbeefull};
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  CacheRecord rec;
  std::string detail;
  const ProbeOutcome any = findb::decode_record(bytes, nullptr, &rec, &detail);
  CacheRecord keyed_rec;
  const ProbeOutcome keyed =
      findb::decode_record(bytes, &kKey, &keyed_rec, &detail);
  if (keyed != any && keyed != ProbeOutcome::kKeyMismatch) std::abort();
  if (any != ProbeOutcome::kHit) return 0;  // rejected cleanly
  if (keyed == ProbeOutcome::kHit && !same_record(keyed_rec, rec))
    std::abort();

  // A hit must survive encode -> decode unchanged.
  CacheRecord back;
  if (findb::decode_record(findb::encode_record(kKey, rec), &kKey, &back,
                           &detail) != ProbeOutcome::kHit)
    std::abort();
  if (!same_record(back, rec)) std::abort();
  return 0;
}

#include "fuzz_main.inc"
