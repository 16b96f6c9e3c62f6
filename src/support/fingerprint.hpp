// Shared fingerprinting: the one place pipeline / MachineModel / options /
// build hashing lives, used by both the persistent schedule cache's keys
// (storage/findb) and the bench artifacts' provenance blocks.
//
// Two hash families with different jobs:
//  * Fnv64 — an incremental FNV-1a structural hasher.  Fingerprints answer
//    "is this the same pipeline / machine / option set?", so every field
//    that can change the chosen schedule is folded in, tagged, and
//    length-prefixed (no concatenation ambiguity).  Not cryptographic: a
//    hostile collision at worst causes a cache probe to return a schedule
//    that fails the hardened parser / grouping validation and degrades to a
//    fresh autoschedule — never a wrong plan.
//  * crc32 — record integrity for on-disk cache payloads (detects
//    truncation and bit-flips, IEEE 802.3 polynomial).
//
// Intentionally include-only on the IR/model layers: fingerprinting walks
// the plain-data headers (ir/pipeline.hpp, model/machine.hpp) without
// calling into their compiled code, so fusedp_support stays the bottom
// library.
#pragma once

#include <cstdint>
#include <string>

namespace fusedp {

class Pipeline;
struct MachineModel;
struct Stage;

// Incremental FNV-1a (64-bit).  Every add_* tags the value with its type
// and, for variable-length data, its length, so distinct structures cannot
// collide by concatenation.
class Fnv64 {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add_str(const std::string& s);
  void add_i64(std::int64_t v);
  void add_u64(std::uint64_t v);
  void add_i32(std::int32_t v);
  void add_f64(double v);   // hashed by bit pattern
  void add_f32(float v);    // hashed by bit pattern
  void add_tag(char tag);   // 1-byte structural separator

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

// IEEE 802.3 CRC-32 (polynomial 0xEDB88320), `seed` chains partial blocks.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);
std::uint32_t crc32(const std::string& s);

// 16-digit lowercase hex of a 64-bit hash (cache file stems, provenance).
std::string hex64(std::uint64_t v);
// Inverse of hex64; returns false on anything but exactly 16 hex digits.
bool parse_hex64(const std::string& s, std::uint64_t* out);

// The commit this binary was configured at ("unknown" outside a git
// checkout).  Baked into fusedp_support at configure time; bench provenance
// and cache record provenance both read it from here.
const char* build_git_sha();

// Structural fingerprint of a finalized pipeline: inputs (name + domain),
// stages in id order (name, kind, domain, liveout flag, expression arena,
// load table with axis maps and border modes) and the output list.  Native
// reduction bodies are opaque std::functions and are represented by the
// stage's declared loads/domain/name; code changes to them are covered by
// the git SHA recorded next to every cache entry.
std::uint64_t fingerprint(const Pipeline& pl);

// Folds one stage's part of that fingerprint into `h`: name, id, kind,
// liveout flag, domain, body root, expression arena and load table.
// fingerprint(const Pipeline&) is this over every stage plus the inputs
// and outputs; the never-pessimize gate keys its per-stage memo on it.
void add_stage_structure(Fnv64& h, const Stage& s);

// Fingerprint of everything the cost model reads from the machine: cache
// sizes, core count, vector width, INNERMOSTTILESIZE and the w1..w4
// weights, plus kCostModelRevision.  Two machines with equal fingerprints
// choose identical schedules.
std::uint64_t fingerprint(const MachineModel& machine);

}  // namespace fusedp
