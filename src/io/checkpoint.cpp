#include "src/io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "src/fem/membrane_model.hpp"
#include "src/obs/trace.hpp"
#include "src/mesh/trimesh.hpp"

namespace apr::io {

namespace {

constexpr std::uint32_t kLatticeTag = fourcc('L', 'A', 'T', 'T');
constexpr std::uint32_t kCellsTag = fourcc('C', 'E', 'L', 'L');


std::string tag_name(std::uint32_t tag) {
  char s[5] = {static_cast<char>(tag & 0xFF),
               static_cast<char>((tag >> 8) & 0xFF),
               static_cast<char>((tag >> 16) & 0xFF),
               static_cast<char>((tag >> 24) & 0xFF), '\0'};
  for (char& c : s) {
    if (c != '\0' && (c < 0x20 || c > 0x7E)) c = '?';
  }
  return std::string(s);
}

/// Slice-by-8 tables: t[0] is the byte-at-a-time CRC table, t[k][i] the
/// CRC of byte i followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// --- Checkpoint container ---------------------------------------------------

void Checkpoint::add(std::uint32_t tag, std::vector<char> payload) {
  if (has(tag)) {
    throw CheckpointError("checkpoint: duplicate section " + tag_name(tag));
  }
  sections_.emplace_back(tag, std::move(payload));
}

bool Checkpoint::has(std::uint32_t tag) const {
  for (const auto& [t, p] : sections_) {
    if (t == tag) return true;
  }
  return false;
}

const std::vector<char>& Checkpoint::section(std::uint32_t tag) const {
  for (const auto& [t, p] : sections_) {
    if (t == tag) return p;
  }
  throw CheckpointError("checkpoint: missing section " + tag_name(tag));
}

std::vector<std::uint32_t> Checkpoint::tags() const {
  std::vector<std::uint32_t> out;
  out.reserve(sections_.size());
  for (const auto& [t, p] : sections_) out.push_back(t);
  return out;
}

template <typename Put>
void Checkpoint::emit(Put&& put) const {
  const auto pod = [&put](const auto& v) { put(&v, sizeof(v)); };
  pod(kMagic);
  pod(kFormatVersion);
  pod(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [tag, payload] : sections_) {
    pod(tag);
    pod(static_cast<std::uint64_t>(payload.size()));
    put(payload.data(), payload.size());
    pod(crc32(payload.data(), payload.size()));
  }
}

std::vector<char> Checkpoint::to_bytes() const {
  BufWriter w;
  w.reserve_more(byte_size());
  emit([&w](const void* p, std::size_t n) { w.bytes(p, n); });
  return w.take();
}

namespace {

/// Byte source over an in-memory image.
struct MemorySource {
  const std::vector<char>& bytes;
  std::size_t pos = 0;
  std::uint64_t remaining() const { return bytes.size() - pos; }
  void read(void* dst, std::size_t n) {
    if (n > 0) std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
  }
};

/// Byte source over an open file of known size.
struct FileSource {
  std::ifstream& is;
  const std::string& path;
  std::uint64_t left;
  std::uint64_t remaining() const { return left; }
  void read(void* dst, std::size_t n) {
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is) throw CheckpointError("checkpoint: cannot read " + path);
    left -= n;
  }
};

/// Parse and validate a container from `src`. A corrupt size field must
/// not trigger a monster allocation, but a fixed cap would reject
/// legitimately huge lattices, so section sizes are bounded by what the
/// source still holds; each payload is read straight into its section.
template <typename Source>
Checkpoint parse_container(Source& src, const std::string& what) {
  auto get = [&src, &what](auto& v, const char* field) {
    if (src.remaining() < sizeof(v)) {
      throw CheckpointError("checkpoint: truncated " + what +
                            " (while reading " + field + ")");
    }
    src.read(&v, sizeof(v));
  };
  std::uint64_t magic = 0;
  get(magic, "magic");
  if (magic != Checkpoint::kMagic) {
    throw CheckpointError("checkpoint: " + what +
                          " is not an APR checkpoint (bad magic)");
  }
  std::uint32_t version = 0;
  get(version, "format version");
  if (version != Checkpoint::kFormatVersion) {
    throw CheckpointError(
        "checkpoint: " + what + " has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(Checkpoint::kFormatVersion) +
        (version > Checkpoint::kFormatVersion ? " (file from a newer build?)"
                                              : ""));
  }
  std::uint32_t count = 0;
  get(count, "section count");
  Checkpoint ckpt;
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    get(tag, "section tag");
    get(size, "section size");
    if (size > src.remaining()) {
      throw CheckpointError("checkpoint: truncated " + what + " (section " +
                            tag_name(tag) +
                            " claims more bytes than the image holds)");
    }
    std::vector<char> payload(static_cast<std::size_t>(size));
    src.read(payload.data(), payload.size());
    std::uint32_t stored_crc = 0;
    get(stored_crc, "section crc");
    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != stored_crc) {
      char msg[128];
      std::snprintf(msg, sizeof(msg),
                    "checkpoint: CRC mismatch in section %s "
                    "(stored %08X, computed %08X)",
                    tag_name(tag).c_str(), stored_crc, actual);
      throw CheckpointError(std::string(msg) + " of " + what);
    }
    ckpt.add(tag, std::move(payload));
  }
  return ckpt;
}

}  // namespace

Checkpoint Checkpoint::from_bytes(const std::vector<char>& bytes,
                                  const std::string& what) {
  MemorySource src{bytes};
  return parse_container(src, what);
}

std::size_t Checkpoint::byte_size() const {
  // Mirror the framing arithmetic of emit() so metrics can report
  // checkpoint sizes without serializing.
  std::size_t n = sizeof(kMagic) + sizeof(kFormatVersion) +
                  sizeof(std::uint32_t);
  for (const auto& [tag, payload] : sections_) {
    n += sizeof(tag) + sizeof(std::uint64_t) + payload.size() +
         sizeof(std::uint32_t);
  }
  return n;
}

void Checkpoint::write(const std::string& path) const {
  OBS_SPAN("io", "checkpoint_write");
  // Stream into a sibling temp file and rename it over the target, so a
  // failed or interrupted save (a full disk, a killed process) never
  // destroys the previous checkpoint at `path`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CheckpointError("checkpoint: cannot open " + tmp);
    emit([&os](const void* p, std::size_t n) {
      os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    });
    os.close();
    if (!os) {
      std::remove(tmp.c_str());
      throw CheckpointError("checkpoint: write failed for " + path);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot replace " + path);
  }
}

Checkpoint Checkpoint::read(const std::string& path) {
  OBS_SPAN("io", "checkpoint_read");
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CheckpointError("checkpoint: cannot open " + path);
  const auto end = is.tellg();
  is.seekg(0, std::ios::beg);
  if (end < 0 || !is) throw CheckpointError("checkpoint: cannot read " + path);
  FileSource src{is, path, static_cast<std::uint64_t>(end)};
  return parse_container(src, path);
}

std::uint64_t Checkpoint::digest() const {
  Fnv1a h;
  for (const auto& [tag, payload] : sections_) {
    h.update_pod(tag);
    h.update_pod(static_cast<std::uint64_t>(payload.size()));
    h.update(payload.data(), payload.size());
  }
  return h.value();
}

// --- LatticeState -----------------------------------------------------------

namespace {

/// Sentinel distinguishing the tiled (revision 2) lattice encoding from
/// the pre-tiling revision-1 one, whose first field was the strictly
/// positive nx.
constexpr std::int32_t kTiledSentinel = -2;
constexpr std::uint32_t kLatticeRevision = 2;

/// Wire bytes of one node of a block payload: type, tau, ubc, kQ f, rho, u.
constexpr std::size_t kNodeWireBytes =
    sizeof(lbm::NodeType) + sizeof(double) + sizeof(Vec3) +
    lbm::kQ * sizeof(double) + sizeof(double) + sizeof(Vec3);

inline bool vec_zero(const Vec3& v) {
  return v.x == 0.0 && v.y == 0.0 && v.z == 0.0;
}

std::uint32_t num_blocks(int nx, int ny, int nz) {
  constexpr int S = lbm::Lattice::kTileSide;
  return static_cast<std::uint32_t>((nx + S - 1) / S) *
         static_cast<std::uint32_t>((ny + S - 1) / S) *
         static_cast<std::uint32_t>((nz + S - 1) / S);
}

/// True when some node of `b` differs from the vacant-tile defaults;
/// blocks with no such node are left out of the snapshot.
bool block_nondefault(const lbm::BlockSnapshot& b, double default_tau) {
  for (std::size_t i = 0; i < b.type.size(); ++i) {
    if (b.type[i] != lbm::NodeType::Exterior || b.tau[i] != default_tau ||
        !vec_zero(b.ubc[i]) || b.rho[i] != 1.0 || !vec_zero(b.u[i])) {
      return true;
    }
  }
  // Only Exterior nodes remain, so every f is a zeroed dead slot.
  return false;
}

}  // namespace

LatticeState LatticeState::capture(const lbm::Lattice& lat) {
  LatticeState st;
  st.nx = lat.nx();
  st.ny = lat.ny();
  st.nz = lat.nz();
  st.origin = lat.origin();
  st.dx = lat.dx();
  st.default_tau = lat.default_tau();
  st.fused = lat.fused_kernel() ? 1 : 0;
  st.collision = static_cast<std::uint8_t>(lat.collision_model());
  st.trt_magic = lat.trt_magic();
  for (int a = 0; a < 3; ++a) st.periodic[a] = lat.periodic(a) ? 1 : 0;
  st.ubc_nonzero = lat.ubc_nonzero() ? 1 : 0;
  st.body_force = lat.body_force();
  st.site_updates = lat.site_updates();
  // f at Wall/Exterior nodes is dead storage: streaming never writes those
  // slots, so after the buffer swap they hold stale values from two steps
  // back that no physics path ever reads. capture_block canonicalizes
  // them to zero so the snapshot (and hence digests and bit-exact resume
  // comparisons) depends only on live populations.
  st.blocks.reserve(lat.num_tiles());
  lbm::BlockSnapshot scratch;
  for (std::size_t t = 0; t < lat.num_tiles(); ++t) {
    lat.capture_block(t, scratch);
    if (block_nondefault(scratch, st.default_tau)) {
      st.blocks.push_back(std::move(scratch));
      scratch = lbm::BlockSnapshot{};
    }
  }
  return st;
}

void LatticeState::validate_geometry(const lbm::Lattice& lat) const {
  if (nx != lat.nx() || ny != lat.ny() || nz != lat.nz() ||
      std::abs(dx - lat.dx()) > 1e-15) {
    throw CheckpointError(
        "checkpoint: lattice geometry mismatch (file " + std::to_string(nx) +
        "x" + std::to_string(ny) + "x" + std::to_string(nz) + " @ dx=" +
        std::to_string(dx) + ", target " + std::to_string(lat.nx()) + "x" +
        std::to_string(lat.ny()) + "x" + std::to_string(lat.nz()) +
        " @ dx=" + std::to_string(lat.dx()) + ")");
  }
  if (collision > static_cast<std::uint8_t>(lbm::CollisionModel::Mrt)) {
    throw CheckpointError("checkpoint: unknown collision model id " +
                          std::to_string(collision));
  }
  const std::uint32_t nblocks = num_blocks(nx, ny, nz);
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const lbm::BlockSnapshot& b = blocks[k];
    if (b.id >= nblocks || (k > 0 && b.id <= blocks[k - 1].id)) {
      throw CheckpointError("checkpoint: lattice block ids out of order "
                            "or out of range");
    }
    int vx, vy, vz;
    lbm::Lattice::block_extent(nx, ny, nz, b.id, vx, vy, vz);
    const std::size_t m = static_cast<std::size_t>(vx) * vy * vz;
    if (b.type.size() != m || b.tau.size() != m || b.ubc.size() != m ||
        b.f.size() != lbm::kQ * m || b.rho.size() != m || b.u.size() != m) {
      throw CheckpointError("checkpoint: lattice section has inconsistent "
                            "array sizes");
    }
    for (const lbm::NodeType t : b.type) {
      if (t > lbm::NodeType::Coupling) {
        throw CheckpointError("checkpoint: unknown node type id " +
                              std::to_string(static_cast<int>(t)));
      }
    }
  }
}

void LatticeState::apply(lbm::Lattice& lat) const {
  // The baseline first: blocks reset or materialized below take it.
  lat.set_default_tau(default_tau);
  lat.restore_blocks(blocks);
  lat.set_periodic(periodic[0] != 0, periodic[1] != 0, periodic[2] != 0);
  lat.set_fused_kernel(fused != 0);
  lat.set_collision_model(static_cast<lbm::CollisionModel>(collision),
                          trt_magic);
  lat.set_body_force(body_force);
  lat.set_site_updates(site_updates);
  lat.set_ubc_nonzero(ubc_nonzero != 0);
}

void LatticeState::set_tau(std::size_t i, double tau) {
  constexpr int S = lbm::Lattice::kTileSide;
  const std::size_t plane = static_cast<std::size_t>(nx) * ny;
  const int z = static_cast<int>(i / plane);
  const int y = static_cast<int>((i % plane) / static_cast<std::size_t>(nx));
  const int x = static_cast<int>(i % static_cast<std::size_t>(nx));
  const auto id = static_cast<std::uint32_t>(
      ((z / S) * ((ny + S - 1) / S) + y / S) * ((nx + S - 1) / S) + x / S);
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), id,
      [](const lbm::BlockSnapshot& b, std::uint32_t v) { return b.id < v; });
  if (z >= nz || it == blocks.end() || it->id != id) {
    throw std::out_of_range("LatticeState::set_tau: node " +
                            std::to_string(i) + " is not in a kept block");
  }
  int vx, vy, vz;
  lbm::Lattice::block_extent(nx, ny, nz, id, vx, vy, vz);
  it->tau[(static_cast<std::size_t>(z % S) * vy + y % S) * vx + x % S] = tau;
}

std::vector<char> LatticeState::serialize() const {
  BufWriter w;
  w.pod(kTiledSentinel);
  w.pod(kLatticeRevision);
  w.pod(nx);
  w.pod(ny);
  w.pod(nz);
  w.pod(origin);
  w.pod(dx);
  w.pod(fused);
  w.pod(collision);
  w.pod(trt_magic);
  w.bytes(periodic, sizeof(periodic));
  w.pod(ubc_nonzero);
  w.pod(body_force);
  w.pod(site_updates);
  w.pod(default_tau);

  std::size_t payload = sizeof(std::uint32_t);
  for (const lbm::BlockSnapshot& b : blocks) {
    payload += sizeof(b.id) + b.type.size() * kNodeWireBytes;
  }
  w.reserve_more(payload);
  w.pod(static_cast<std::uint32_t>(blocks.size()));
  const auto put = [&w](const auto& v) {
    w.bytes(v.data(), v.size() * sizeof(v[0]));
  };
  for (const lbm::BlockSnapshot& b : blocks) {
    w.pod(b.id);
    put(b.type);
    put(b.tau);
    put(b.ubc);
    put(b.f);
    put(b.rho);
    put(b.u);
  }
  return w.take();
}

LatticeState LatticeState::deserialize(const std::vector<char>& payload,
                                       std::string what) {
  BufReader r(payload, what);
  LatticeState st;
  const auto first = r.pod<std::int32_t>();
  if (first != kTiledSentinel) {
    // Revision-1 sections began with nx > 0; anything else is foreign.
    throw CheckpointError(
        "checkpoint: unsupported lattice section " +
        (first > 0 ? std::string("revision 1 (pre-tiling dense encoding)")
                   : std::string("encoding")) +
        " in " + what);
  }
  const auto rev = r.pod<std::uint32_t>();
  if (rev != kLatticeRevision) {
    throw CheckpointError("checkpoint: unsupported lattice section "
                          "revision " + std::to_string(rev) + " in " + what);
  }
  r.pod(st.nx);
  r.pod(st.ny);
  r.pod(st.nz);
  r.pod(st.origin);
  r.pod(st.dx);
  r.pod(st.fused);
  r.pod(st.collision);
  r.pod(st.trt_magic);
  for (auto& p : st.periodic) r.pod(p);
  r.pod(st.ubc_nonzero);
  r.pod(st.body_force);
  r.pod(st.site_updates);
  if (st.nx <= 0 || st.ny <= 0 || st.nz <= 0 ||
      st.nx > (1 << 14) || st.ny > (1 << 14) || st.nz > (1 << 14)) {
    throw CheckpointError("checkpoint: implausible lattice dimensions");
  }
  r.pod(st.default_tau);

  const std::uint32_t nblocks = num_blocks(st.nx, st.ny, st.nz);
  const auto count = r.pod<std::uint32_t>();
  if (count > nblocks || count > r.remaining() / (sizeof(std::uint32_t) +
                                                  kNodeWireBytes)) {
    throw CheckpointError("checkpoint: lattice section has implausible "
                          "block count");
  }
  st.blocks.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    lbm::BlockSnapshot& b = st.blocks[k];
    r.pod(b.id);
    if (b.id >= nblocks || (k > 0 && b.id <= st.blocks[k - 1].id)) {
      throw CheckpointError("checkpoint: lattice block ids out of order "
                            "or out of range");
    }
    int vx, vy, vz;
    lbm::Lattice::block_extent(st.nx, st.ny, st.nz, b.id, vx, vy,
                                  vz);
    const std::size_t m = static_cast<std::size_t>(vx) * vy * vz;
    if (r.remaining() < m * kNodeWireBytes) {
      throw CheckpointError("checkpoint: truncated " + what + " section");
    }
    const auto get = [&r](auto& v, std::size_t n) {
      v.resize(n);
      r.raw(v.data(), n * sizeof(v[0]));
    };
    get(b.type, m);
    get(b.tau, m);
    get(b.ubc, m);
    get(b.f, lbm::kQ * m);
    get(b.rho, m);
    get(b.u, m);
  }
  r.expect_end();
  return st;
}

// --- CellPoolState ----------------------------------------------------------

std::uint64_t membrane_model_digest(const fem::MembraneModel& model) {
  Fnv1a h;
  const mesh::TriMesh& ref = model.reference();
  h.update_pod(ref.num_vertices());
  h.update_pod(ref.num_triangles());
  h.update(ref.vertices.data(), ref.vertices.size() * sizeof(Vec3));
  h.update(ref.triangles.data(),
           ref.triangles.size() * sizeof(mesh::Triangle));
  const fem::MembraneParams& p = model.params();
  h.update_pod(p.shear_modulus);
  h.update_pod(p.skalak_c);
  h.update_pod(p.bending_modulus);
  h.update_pod(p.ka_global);
  h.update_pod(p.kv_global);
  h.update_pod(p.mass);
  return h.value();
}

CellPoolState CellPoolState::capture(const cells::CellPool& pool) {
  CellPoolState st;
  st.nv = static_cast<std::uint32_t>(pool.vertices_per_cell());
  st.model_digest = membrane_model_digest(pool.model());
  const std::size_t count = pool.size();
  st.ids.reserve(count);
  st.x.reserve(count * st.nv);
  st.v.reserve(count * st.nv);
  for (std::size_t s = 0; s < count; ++s) {
    st.ids.push_back(pool.id(s));
    const auto xs = pool.positions(s);
    const auto vs = pool.velocities(s);
    st.x.insert(st.x.end(), xs.begin(), xs.end());
    st.v.insert(st.v.end(), vs.begin(), vs.end());
  }
  return st;
}

void CellPoolState::validate(const cells::CellPool& pool) const {
  if (nv != static_cast<std::uint32_t>(pool.vertices_per_cell())) {
    throw CheckpointError(
        "checkpoint: vertex-count mismatch (file cells have " +
        std::to_string(nv) + " vertices, pool expects " +
        std::to_string(pool.vertices_per_cell()) + ")");
  }
  if (model_digest != membrane_model_digest(pool.model())) {
    throw CheckpointError(
        "checkpoint: membrane-model reference state differs from the "
        "target pool's (different mesh or material parameters)");
  }
  const std::size_t count = ids.size();
  if (x.size() != count * nv || v.size() != count * nv) {
    throw CheckpointError("checkpoint: cell section has inconsistent "
                          "array sizes");
  }
  if (pool.size() + count > pool.capacity()) {
    throw CheckpointError("checkpoint: pool capacity " +
                          std::to_string(pool.capacity()) +
                          " cannot hold " + std::to_string(count) +
                          " restored cells");
  }
  for (const std::uint64_t id : ids) {
    if (pool.contains(id)) {
      throw CheckpointError("checkpoint: pool already contains cell id " +
                            std::to_string(id));
    }
  }
}

void CellPoolState::apply(cells::CellPool& pool) const {
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const std::size_t slot = pool.add(
        ids[c], std::span<const Vec3>(x.data() + c * nv, nv));
    auto vel = pool.velocities(slot);
    for (std::uint32_t k = 0; k < nv; ++k) vel[k] = v[c * nv + k];
  }
}

std::vector<char> CellPoolState::serialize() const {
  BufWriter w;
  w.pod(nv);
  w.pod(model_digest);
  w.vec(ids);
  w.vec(x);
  w.vec(v);
  return w.take();
}

CellPoolState CellPoolState::deserialize(const std::vector<char>& payload,
                                         std::string what) {
  BufReader r(payload, std::move(what));
  CellPoolState st;
  r.pod(st.nv);
  r.pod(st.model_digest);
  if (st.nv == 0 || st.nv > (1u << 20)) {
    throw CheckpointError("checkpoint: implausible vertex count");
  }
  constexpr std::uint64_t kMaxCells = 1ull << 24;
  r.vec(st.ids, kMaxCells);
  const std::uint64_t nvert =
      static_cast<std::uint64_t>(st.ids.size()) * st.nv;
  r.vec(st.x, nvert);
  r.vec(st.v, nvert);
  r.expect_end();
  return st;
}

// --- single-object convenience files ----------------------------------------

void save_lattice(const std::string& path, const lbm::Lattice& lat) {
  Checkpoint ckpt;
  ckpt.add(kLatticeTag, LatticeState::capture(lat).serialize());
  ckpt.write(path);
}

void load_lattice(const std::string& path, lbm::Lattice& lat) {
  const Checkpoint ckpt = Checkpoint::read(path);
  const LatticeState st =
      LatticeState::deserialize(ckpt.section(kLatticeTag), "lattice");
  st.validate_geometry(lat);
  st.apply(lat);
}

void save_cells(const std::string& path, const cells::CellPool& pool) {
  Checkpoint ckpt;
  ckpt.add(kCellsTag, CellPoolState::capture(pool).serialize());
  ckpt.write(path);
}

void load_cells(const std::string& path, cells::CellPool& pool) {
  const Checkpoint ckpt = Checkpoint::read(path);
  const CellPoolState st =
      CellPoolState::deserialize(ckpt.section(kCellsTag), "cells");
  st.validate(pool);
  st.apply(pool);
}

}  // namespace apr::io
