#include "xdp/ckpt/io.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xdp::ckpt {
namespace {

constexpr char kMagic[8] = {'X', 'D', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Record tags.
constexpr std::uint16_t kTagMeta = 1;
constexpr std::uint16_t kTagTable = 2;
constexpr std::uint16_t kTagFabric = 3;
constexpr std::uint16_t kTagCont = 4;

void appendRecord(Writer& w, std::uint16_t tag,
                  const std::vector<std::byte>& payload) {
  w.u16(tag);
  w.u64(payload.size());
  w.raw(payload);
  w.u64(fnv1a(payload));
}

}  // namespace

std::uint64_t fnv1a(const std::byte* data, std::size_t n, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t snapshotRecordCount(const Snapshot& snap) {
  return 2 + snap.tables.size() + snap.conts.size();
}

std::vector<std::byte> encodeSnapshot(const Snapshot& snap) {
  Writer w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(snap.version);

  {
    Writer meta;
    meta.u8(snap.backend);
    meta.i64(snap.nprocs);
    meta.u64(snap.programHash);
    meta.u64(snap.captureStep);
    meta.i64(static_cast<std::int64_t>(snap.tables.size()));
    meta.i64(static_cast<std::int64_t>(snap.conts.size()));
    appendRecord(w, kTagMeta, meta.buffer());
  }
  for (std::size_t pid = 0; pid < snap.tables.size(); ++pid) {
    Writer t;
    t.i64(static_cast<std::int64_t>(pid));
    t.bytes(snap.tables[pid]);
    appendRecord(w, kTagTable, t.buffer());
  }
  appendRecord(w, kTagFabric, snap.fabric);
  for (std::size_t pid = 0; pid < snap.conts.size(); ++pid) {
    const ContImage& c = snap.conts[pid];
    Writer t;
    t.i64(static_cast<std::int64_t>(pid));
    t.u8(c.engine);
    t.boolean(c.finished);
    t.boolean(c.unsafe);
    for (std::uint64_t s : c.stats) t.u64(s);
    t.bytes(c.payload);
    appendRecord(w, kTagCont, t.buffer());
  }

  w.u64(fnv1a(w.buffer()));
  return w.take();
}

Snapshot decodeSnapshot(const std::vector<std::byte>& buf) {
  if (buf.size() < sizeof(kMagic) + 4 + 8)
    throw CkptError("snapshot too short to hold header and trailer");
  // Whole-file checksum first: everything before the trailing u64.
  {
    Reader tail(buf.data() + buf.size() - 8, 8);
    std::uint64_t want = tail.u64();
    std::uint64_t got = fnv1a(buf.data(), buf.size() - 8);
    if (want != got) {
      std::ostringstream os;
      os << "whole-file checksum mismatch (stored " << want << ", computed "
         << got << ")";
      throw CkptError(os.str());
    }
  }

  Reader r(buf.data(), buf.size() - 8);
  for (char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c))
      throw CkptError("bad snapshot magic");
  }
  std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    std::ostringstream os;
    os << "unsupported snapshot version " << version << " (expected "
       << kSnapshotVersion << ")";
    throw CkptError(os.str());
  }

  Snapshot snap;
  snap.version = version;
  bool haveMeta = false;
  bool haveFabric = false;
  std::int64_t wantTables = -1;
  std::int64_t wantConts = -1;
  while (!r.atEnd()) {
    std::uint16_t tag = r.u16();
    std::vector<std::byte> payload = r.bytes();
    std::uint64_t want = r.u64();
    std::uint64_t got = fnv1a(payload);
    if (want != got) {
      std::ostringstream os;
      os << "record " << tag << " checksum mismatch (stored " << want
         << ", computed " << got << ")";
      throw CkptError(os.str());
    }
    Reader p(payload);
    switch (tag) {
      case kTagMeta: {
        if (haveMeta) throw CkptError("duplicate meta record");
        haveMeta = true;
        snap.backend = p.u8();
        snap.nprocs = static_cast<int>(p.i64());
        snap.programHash = p.u64();
        snap.captureStep = p.u64();
        wantTables = p.i64();
        wantConts = p.i64();
        if (snap.nprocs < 0 || wantTables != snap.nprocs ||
            wantConts != snap.nprocs)
          throw CkptError("meta record is internally inconsistent");
        // Every processor needs a table and a continuation record of at
        // least 18 bytes each: reject a count the image cannot hold
        // before sizing for it.
        if (wantTables > static_cast<std::int64_t>(r.remaining() / 36))
          throw CkptError("meta record processor count exceeds image size");
        snap.tables.resize(static_cast<std::size_t>(wantTables));
        snap.conts.resize(static_cast<std::size_t>(wantConts));
        break;
      }
      case kTagTable: {
        if (!haveMeta) throw CkptError("table record before meta record");
        std::int64_t pid = p.i64();
        if (pid < 0 || pid >= wantTables)
          throw CkptError("table record pid out of range");
        snap.tables[static_cast<std::size_t>(pid)] = p.bytes();
        break;
      }
      case kTagFabric: {
        if (haveFabric) throw CkptError("duplicate fabric record");
        haveFabric = true;
        snap.fabric = payload;
        break;
      }
      case kTagCont: {
        if (!haveMeta) throw CkptError("cont record before meta record");
        std::int64_t pid = p.i64();
        if (pid < 0 || pid >= wantConts)
          throw CkptError("cont record pid out of range");
        ContImage& c = snap.conts[static_cast<std::size_t>(pid)];
        c.engine = p.u8();
        c.finished = p.boolean();
        c.unsafe = p.boolean();
        for (auto& s : c.stats) s = p.u64();
        c.payload = p.bytes();
        break;
      }
      default:
        throw CkptError("unknown record tag");
    }
  }
  if (!haveMeta) throw CkptError("snapshot has no meta record");
  if (!haveFabric) throw CkptError("snapshot has no fabric record");
  return snap;
}

void saveSnapshotFile(const std::string& path,
                      const std::vector<std::byte>& encoded) {
  // Write-then-rename so a crash mid-write leaves no torn file under the
  // final name (a torn temp file is ignored by adoptFromDir).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CkptError("cannot open for write: " + tmp);
    os.write(reinterpret_cast<const char*>(encoded.data()),
             static_cast<std::streamsize>(encoded.size()));
    if (!os) throw CkptError("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw CkptError("rename failed: " + path + ": " + ec.message());
}

std::vector<std::byte> loadSnapshotFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CkptError("cannot open: " + path);
  std::streamsize n = is.tellg();
  is.seekg(0);
  std::vector<std::byte> buf(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(buf.data()), n);
  if (!is) throw CkptError("read failed: " + path);
  return buf;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) throw CkptError("cannot create dir: " + dir_ + ": " + ec.message());
  }
}

std::string CheckpointStore::filePath(std::uint64_t seq) const {
  std::ostringstream os;
  os << dir_ << "/ckpt-";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%08llu",
                static_cast<unsigned long long>(seq));
  os << buf << ".xdpckpt";
  return os.str();
}

void CheckpointStore::add(const Snapshot& snap) {
  Held h;
  h.seq = nextSeq_++;
  h.encoded = encodeSnapshot(snap);
  stats_.snapshots += 1;
  stats_.lastBytes = h.encoded.size();
  stats_.lastRecords = snapshotRecordCount(snap);
  stats_.totalBytes += h.encoded.size();
  if (!dir_.empty()) saveSnapshotFile(filePath(h.seq), h.encoded);
  ring_.push_back(std::move(h));
  while (ring_.size() > 2) {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove(filePath(ring_.front().seq), ec);
    }
    ring_.pop_front();
  }
}

Snapshot CheckpointStore::loadLatestGood() {
  while (!ring_.empty()) {
    try {
      return decodeSnapshot(ring_.back().encoded);
    } catch (const CkptError&) {
      stats_.fallbacks += 1;
      ring_.pop_back();
    }
  }
  throw CkptError("no good snapshot available");
}

int CheckpointStore::adoptFromDir() {
  if (dir_.empty()) return 0;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& ent : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.size() < 13 || name.substr(name.size() - 8) != ".xdpckpt")
      continue;
    std::uint64_t seq = 0;
    try {
      seq = std::stoull(name.substr(5, name.size() - 13));
    } catch (...) {
      continue;
    }
    found.emplace_back(seq, ent.path().string());
  }
  std::sort(found.begin(), found.end());
  int adopted = 0;
  // Newest two, oldest first into the ring.
  std::size_t start = found.size() > 2 ? found.size() - 2 : 0;
  ring_.clear();
  for (std::size_t i = start; i < found.size(); ++i) {
    try {
      std::vector<std::byte> buf = loadSnapshotFile(found[i].second);
      decodeSnapshot(buf);  // verify before adopting
      Held h;
      h.seq = found[i].first;
      h.encoded = std::move(buf);
      ring_.push_back(std::move(h));
      adopted += 1;
    } catch (const CkptError&) {
      stats_.fallbacks += 1;
    }
  }
  if (!found.empty()) nextSeq_ = found.back().first + 1;
  return adopted;
}

}  // namespace xdp::ckpt
