#include "support/fingerprint.hpp"

#include <cstring>

#include "ir/pipeline.hpp"
#include "model/machine.hpp"

namespace fusedp {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

void Fnv64::add_bytes(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= kFnvPrime;
  }
}

void Fnv64::add_tag(char tag) { add_bytes(&tag, 1); }

namespace {
// Little-endian bytes of v, shared by the typed add_* methods below.
void raw_u64(Fnv64& h, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  h.add_bytes(b, 8);
}
}  // namespace

void Fnv64::add_str(const std::string& s) {
  add_tag('s');
  raw_u64(*this, s.size());
  add_bytes(s.data(), s.size());
}

// Each typed add_* leads with its own tag byte so the same bit pattern fed
// as different types cannot collide (e.g. add_i64(0) vs add_f64(0.0)).
void Fnv64::add_u64(std::uint64_t v) {
  add_tag('u');
  raw_u64(*this, v);
}

void Fnv64::add_i64(std::int64_t v) {
  add_tag('i');
  raw_u64(*this, static_cast<std::uint64_t>(v));
}

void Fnv64::add_i32(std::int32_t v) {
  add_tag('3');
  raw_u64(*this, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
}

void Fnv64::add_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add_tag('d');
  raw_u64(*this, bits);
}

void Fnv64::add_f32(float v) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add_tag('f');
  raw_u64(*this, bits);
}

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  // Table built on first use (256 u32s; thread-safe static init).
  static const auto table = [] {
    struct Table { std::uint32_t t[256]; };
    Table tbl{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      tbl.t[i] = c;
    }
    return tbl;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    c = table.t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& s) { return crc32(s.data(), s.size()); }

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xFu];
    v >>= 4;
  }
  return s;
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  if (out != nullptr) *out = v;
  return true;
}

const char* build_git_sha() {
#ifdef FUSEDP_GIT_SHA
  return FUSEDP_GIT_SHA;
#else
  return "unknown";
#endif
}

namespace {

void add_box(Fnv64& h, const Box& b) {
  h.add_tag('B');
  h.add_i32(b.rank);
  for (int d = 0; d < b.rank; ++d) {
    h.add_i64(b.lo[d]);
    h.add_i64(b.hi[d]);
  }
}

void add_access(Fnv64& h, const Access& a) {
  h.add_tag('A');
  h.add_tag(a.producer.is_input ? 'i' : 's');
  h.add_i32(a.producer.id);
  h.add_i32(static_cast<std::int32_t>(a.border));
  h.add_u64(a.axes.size());
  for (const AxisMap& m : a.axes) {
    h.add_i32(static_cast<std::int32_t>(m.kind));
    h.add_i32(m.src_dim);
    h.add_i32(m.num);
    h.add_i32(m.den);
    h.add_i64(m.pre);
    h.add_i64(m.offset);
    h.add_i32(m.dyn);
  }
}

}  // namespace

void add_stage_structure(Fnv64& h, const Stage& s) {
  h.add_tag('S');
  h.add_str(s.name);
  h.add_i32(s.id);
  h.add_i32(static_cast<std::int32_t>(s.kind));
  h.add_tag(s.is_output ? 'o' : '.');
  add_box(h, s.domain);
  h.add_i32(s.body);
  // The whole expression arena, node by node: referenced and dead nodes
  // alike (indices are stable, so hashing everything is deterministic and
  // avoids a reachability walk here).
  h.add_u64(s.nodes.size());
  for (const ExprNode& n : s.nodes) {
    h.add_i32(static_cast<std::int32_t>(n.op));
    h.add_f32(n.imm);
    h.add_i32(n.a);
    h.add_i32(n.b);
    h.add_i32(n.c);
    h.add_i32(n.dim);
    h.add_i32(n.load_id);
  }
  h.add_u64(s.loads.size());
  for (const Access& a : s.loads) add_access(h, a);
}

std::uint64_t fingerprint(const Pipeline& pl) {
  Fnv64 h;
  h.add_str("fusedp-pipeline-v1");
  h.add_str(pl.name());
  h.add_u64(static_cast<std::uint64_t>(pl.num_inputs()));
  for (int i = 0; i < pl.num_inputs(); ++i) {
    const InputImage& in = pl.input(i);
    h.add_str(in.name);
    add_box(h, in.domain);
  }
  h.add_u64(static_cast<std::uint64_t>(pl.num_stages()));
  for (const Stage& s : pl.stages()) add_stage_structure(h, s);
  h.add_u64(pl.outputs().size());
  for (int o : pl.outputs()) h.add_i32(o);
  return h.digest();
}

std::uint64_t fingerprint(const MachineModel& m) {
  Fnv64 h;
  h.add_str("fusedp-machine-v1");
  h.add_i32(kCostModelRevision);
  h.add_str(m.name);
  h.add_i64(m.l1_bytes);
  h.add_i64(m.l2_bytes);
  h.add_i64(m.l3_bytes);
  h.add_i32(m.cores);
  h.add_i32(m.vector_width_floats);
  h.add_i64(m.innermost_tile);
  h.add_f64(m.weights.w1);
  h.add_f64(m.weights.w2);
  h.add_f64(m.weights.w3);
  h.add_f64(m.weights.w4);
  return h.digest();
}

}  // namespace fusedp
