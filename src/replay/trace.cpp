#include "replay/trace.hpp"

#include <cstdio>
#include <cstring>
#include <iterator>

namespace infopipe::replay {

namespace {

constexpr char kMagic[4] = {'I', 'P', 'R', 'T'};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian reader; decode() drives it forward.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (left < n) throw TraceError("trace truncated");
  }
  std::uint8_t u8() {
    need(1);
    const std::uint8_t v = p[0];
    p += 1;
    left -= 1;
    return v;
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
    p += 2;
    left -= 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

}  // namespace

const char* to_string(FrameKind k) {
  static constexpr const char* kNames[kNumFrameKinds] = {
      "dispatch", "timer", "chan_push", "chan_pop", "migration",
      "stash",    "mark",  "scale",     "hop"};
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* to_string(Hop h) {
  static constexpr const char* kNames[] = {"drop", "block", "control",
                                           "hand-off"};
  const auto i = static_cast<std::size_t>(h);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const Trace::Flow* Trace::find_flow(const std::string& name) const {
  for (const Flow& f : flows) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::uint64_t> Trace::kind_counts() const {
  std::vector<std::uint64_t> c(kNumFrameKinds, 0);
  for (const Frame& f : frames) {
    if (f.kind < kNumFrameKinds) ++c[f.kind];
  }
  return c;
}

std::vector<std::uint8_t> Trace::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(32 + flows.size() * 32 + frames.size() * kFrameBytes);
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u16(out, meta.version);
  out.push_back(meta.n_shards);
  out.push_back(meta.flags);
  put_u64(out, meta.seed);
  put_u64(out, static_cast<std::uint64_t>(meta.end_time_ns));
  put_u32(out, static_cast<std::uint32_t>(flows.size()));
  put_u32(out, static_cast<std::uint32_t>(sites.size()));
  put_u32(out, static_cast<std::uint32_t>(frames.size()));
  for (const Flow& f : flows) {
    put_str(out, f.name);
    put_u64(out, f.digest);
    put_u64(out, f.items);
  }
  for (const std::string& site : sites) put_str(out, site);
  for (const Frame& f : frames) {
    out.push_back(f.kind);
    out.push_back(f.shard);
    put_u16(out, f.aux16);
    put_u32(out, f.aux32);
    put_u64(out, static_cast<std::uint64_t>(f.t));
    put_u64(out, f.a);
    put_u64(out, f.b);
  }
  return out;
}

Trace Trace::decode(const std::uint8_t* data, std::size_t n) {
  Reader r{data, n};
  r.need(4);
  if (std::memcmp(r.p, kMagic, 4) != 0) {
    throw TraceError("not a schedule trace (bad magic)");
  }
  r.p += 4;
  r.left -= 4;
  Trace t;
  t.meta.version = r.u16();
  if (t.meta.version != kTraceVersion) {
    throw TraceError("unsupported trace version " +
                     std::to_string(t.meta.version));
  }
  t.meta.n_shards = r.u8();
  t.meta.flags = r.u8();
  t.meta.seed = r.u64();
  t.meta.end_time_ns = static_cast<std::int64_t>(r.u64());
  const std::uint32_t n_flows = r.u32();
  const std::uint32_t n_sites = r.u32();
  const std::uint32_t n_frames = r.u32();
  t.flows.reserve(n_flows);
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    Flow f;
    f.name = r.str(r.u16());
    f.digest = r.u64();
    f.items = r.u64();
    t.flows.push_back(std::move(f));
  }
  for (std::uint32_t i = 0; i < n_sites; ++i) t.sites.push_back(r.str(r.u16()));
  t.frames.reserve(n_frames);
  for (std::uint32_t i = 0; i < n_frames; ++i) {
    Frame f;
    f.kind = r.u8();
    f.shard = r.u8();
    f.aux16 = r.u16();
    f.aux32 = r.u32();
    f.t = static_cast<std::int64_t>(r.u64());
    f.a = r.u64();
    f.b = r.u64();
    t.frames.push_back(f);
  }
  return t;
}

void Trace::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw TraceError("cannot open " + path + " for writing");
  const std::size_t w = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int rc = std::fclose(f);
  if (w != bytes.size() || rc != 0) {
    throw TraceError("short write to " + path);
  }
}

Trace Trace::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw TraceError("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return decode(bytes.data(), bytes.size());
}

std::string Trace::summary() const {
  const std::vector<std::uint64_t> c = kind_counts();
  std::string s = "trace v" + std::to_string(meta.version) + ": " +
                  std::to_string(static_cast<int>(meta.n_shards)) +
                  " shards, " + std::to_string(frames.size()) + " frames (";
  for (int k = 0; k < kNumFrameKinds; ++k) {
    if (k != 0) s += ", ";
    s += std::to_string(c[static_cast<std::size_t>(k)]) + " " +
         to_string(static_cast<FrameKind>(k));
  }
  s += "), " + std::to_string(flows.size()) + " flows, " +
       std::to_string(meta.end_time_ns / 1000000) + " ms";
  return s;
}

std::string Trace::to_json_lines() const {
  std::string out;
  for (const Frame& f : frames) {
    out += "{\"t\": " + std::to_string(f.t) + ", \"kind\": \"" +
           to_string(f.frame_kind()) + "\", \"shard\": " +
           std::to_string(static_cast<int>(f.shard));
    if (f.frame_kind() == FrameKind::kHop) {
      out += ", \"hop\": \"";
      out += to_string(static_cast<Hop>(f.aux16));
      out += "\", \"site\": \"";
      if (f.aux32 < sites.size()) {
        for (char ch : sites[f.aux32]) {
          if (ch == '"' || ch == '\\') out += '\\';
          out += ch;
        }
      }
      out += "\", \"a\": " + std::to_string(static_cast<std::int64_t>(f.a)) +
             ", \"b\": " + std::to_string(static_cast<std::int64_t>(f.b));
    } else {
      out += ", \"aux16\": " + std::to_string(f.aux16) +
             ", \"aux32\": " + std::to_string(f.aux32) +
             ", \"a\": " + std::to_string(f.a) +
             ", \"b\": " + std::to_string(f.b);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace infopipe::replay
