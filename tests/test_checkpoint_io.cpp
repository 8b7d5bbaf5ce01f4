/// \file test_checkpoint_io.cpp
/// The checkpoint byte layer: the CRC-32 against a byte-at-a-time
/// reference, byte-identity pins of the lattice wire format and of a
/// whole `save_lattice` file, restore onto lattices whose residency
/// differs from the snapshot, and the atomic (temp file + rename) save.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/io/checkpoint.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::io {
namespace {

using lbm::Lattice;
using lbm::NodeType;

// --- CRC-32 -----------------------------------------------------------------

/// Byte-at-a-time reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320):
/// the reference the table-driven production CRC must reproduce.
std::uint32_t crc32_reference(const void* data, std::size_t size,
                              std::uint32_t crc = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.uniform_index(256));
  return v;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_reference(check, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, ChainsAcrossBuffers) {
  const auto bytes = random_bytes(1000, 11);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const std::uint32_t a = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, a),
              crc32(bytes.data(), bytes.size()))
        << "split " << split;
  }
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  const auto bytes = random_bytes(64 + 16, 12);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(crc32(bytes.data() + offset, len),
                crc32_reference(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32(bytes.data() + offset, len, 0x12345678u),
                crc32_reference(bytes.data() + offset, len, 0x12345678u))
          << "chained, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnOneMegabyte) {
  const auto bytes = random_bytes(std::size_t{1} << 20, 13);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            crc32_reference(bytes.data(), bytes.size()));
  EXPECT_EQ(crc32(bytes.data() + 3, bytes.size() - 3),
            crc32_reference(bytes.data() + 3, bytes.size() - 3));
}

// --- lattice fixtures -------------------------------------------------------

std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + info->name() + "_" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

std::uint64_t fnv(const std::vector<char>& bytes) {
  Fnv1a h;
  h.update(bytes.data(), bytes.size());
  return h.value();
}

/// Type an x-aligned square duct of Fluid wrapped in Wall into `lat`,
/// centred at (cy, cz); everything else is Exterior.
void carve_duct(Lattice& lat, int cy, int cz, int half_width) {
  for (int z = 0; z < lat.nz(); ++z) {
    for (int y = 0; y < lat.ny(); ++y) {
      for (int x = 0; x < lat.nx(); ++x) {
        const int dy = std::abs(y - cy);
        const int dz = std::abs(z - cz);
        NodeType t = NodeType::Exterior;
        if (dy < half_width && dz < half_width) {
          t = NodeType::Fluid;
        } else if (dy <= half_width && dz <= half_width) {
          t = NodeType::Wall;
        }
        lat.set_type(x, y, z, t);
      }
    }
  }
}

/// 45 x 37 x 19 nodes: every axis ends in a clipped 16^3 block, the y < 16
/// blocks are vacant, the duct leaves Wall and Exterior nodes (dead f
/// slots) inside resident blocks, the top wall moves (nonzero ubc), some
/// Fluid nodes carry their own tau, the baseline tau is not 1, x is
/// periodic and the collision operator is MRT.
Lattice make_pin_lattice() {
  Lattice lat(45, 37, 19, Vec3{0.1, -0.2, 0.3}, 0.5, 0.83);
  carve_duct(lat, 26, 12, 5);
  lat.shrink_to_fit();
  lat.set_periodic(true, false, false);
  lat.set_collision_model(lbm::CollisionModel::Mrt);
  lat.init_equilibrium(1.0, Vec3{0.01, 0.0, 0.0});
  for (int z = 0; z < lat.nz(); ++z) {
    for (int x = 0; x < lat.nx(); ++x) {
      lat.set_boundary_velocity(lat.idx(x, 31, z), Vec3{0.02, 0.0, 0.0});
    }
  }
  for (int x = 0; x < lat.nx(); x += 3) {
    lat.set_tau(lat.idx(x, 26, 12), 0.91);
  }
  lat.set_body_force(Vec3{2e-6, 0.0, 0.0});
  for (int s = 0; s < 4; ++s) lat.step();
  return lat;
}

void expect_same_state(const Lattice& a, const Lattice& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    ASSERT_EQ(a.type(i), b.type(i)) << "node " << i;
    ASSERT_EQ(a.tau(i), b.tau(i)) << "node " << i;
    ASSERT_EQ(a.rho(i), b.rho(i)) << "node " << i;
    ASSERT_EQ(a.velocity(i), b.velocity(i)) << "node " << i;
    ASSERT_EQ(a.boundary_velocity(i), b.boundary_velocity(i)) << "node " << i;
    if (!lbm::is_stream_source(a.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(a.f(q, i), b.f(q, i)) << "node " << i << " q " << q;
    }
  }
  EXPECT_EQ(a.default_tau(), b.default_tau());
  EXPECT_EQ(a.ubc_nonzero(), b.ubc_nonzero());
  EXPECT_EQ(a.site_updates(), b.site_updates());
  EXPECT_EQ(a.collision_model(), b.collision_model());
  for (int ax = 0; ax < 3; ++ax) EXPECT_EQ(a.periodic(ax), b.periodic(ax));
}

// --- byte-identity pins -----------------------------------------------------
//
// Recorded from the dense-snapshot implementation this wire format was
// first written by; the tiled snapshot must reproduce every byte.

constexpr std::uint64_t kPinSectionDigest = 0xBCE0758B044BEB51ull;
constexpr std::uint64_t kPinFileDigest = 0x78DE393A987AB375ull;

TEST(CheckpointPins, LatticeSectionBytesArePinned) {
  const Lattice lat = make_pin_lattice();
  ASSERT_TRUE(lat.ubc_nonzero());
  ASSERT_LT(lat.num_tiles(), lat.max_tiles());
  const std::vector<char> bytes = LatticeState::capture(lat).serialize();
  EXPECT_EQ(fnv(bytes), kPinSectionDigest);
}

TEST(CheckpointPins, SaveLatticeFileIsPinned) {
  const Lattice lat = make_pin_lattice();
  const std::string path = temp_path("pin.chk");
  save_lattice(path, lat);
  const std::vector<char> bytes = slurp(path);
  EXPECT_EQ(fnv(bytes), kPinFileDigest);
  std::remove(path.c_str());
}

TEST(CheckpointPins, ApplyReleasesResidentTilesAbsentFromSnapshot) {
  const Lattice src = make_pin_lattice();
  const LatticeState st = LatticeState::capture(src);
  // A target typed differently: its duct sits in the y < 16 blocks the
  // snapshot does not hold, and its own baseline tau differs.
  Lattice dst(45, 37, 19, Vec3{0.1, -0.2, 0.3}, 0.5, 1.0);
  carve_duct(dst, 8, 9, 6);
  dst.shrink_to_fit();
  dst.init_equilibrium(1.02, Vec3{0.0, 0.01, 0.0});
  st.validate_geometry(dst);
  st.apply(dst);
  expect_same_state(src, dst);
  EXPECT_EQ(dst.num_tiles(), src.num_tiles());
  EXPECT_EQ(LatticeState::capture(dst).serialize(), st.serialize());
}

TEST(CheckpointPins, DenseModeTargetKeepsItsTiles) {
  const Lattice src = make_pin_lattice();
  Lattice dst(45, 37, 19, Vec3{0.1, -0.2, 0.3}, 0.5, 1.0);
  dst.set_auto_release(false);
  dst.init_equilibrium(1.0, Vec3{0.0, 0.0, 0.01});
  LatticeState::capture(src).apply(dst);
  expect_same_state(src, dst);
  EXPECT_EQ(dst.num_tiles(), dst.max_tiles());
  EXPECT_EQ(LatticeState::capture(dst).serialize(),
            LatticeState::capture(src).serialize());
}

TEST(CheckpointPins, SetTauPatchesTheNodeOfAKeptBlock) {
  const Lattice src = make_pin_lattice();
  LatticeState st = LatticeState::capture(src);
  const std::size_t edge = src.idx(44, 30, 18);  // clipped corner block
  const std::size_t inner = src.idx(20, 26, 12);
  st.set_tau(edge, 0.77);
  st.set_tau(inner, 0.66);
  Lattice dst(45, 37, 19, Vec3{0.1, -0.2, 0.3}, 0.5, 0.83);
  st.apply(dst);
  for (std::size_t i = 0; i < src.num_nodes(); ++i) {
    const double want = i == edge ? 0.77 : i == inner ? 0.66 : src.tau(i);
    ASSERT_EQ(dst.tau(i), want) << "node " << i;
  }
  // y < 16 blocks are vacant, hence not in the snapshot.
  EXPECT_THROW(st.set_tau(src.idx(3, 3, 3), 0.9), std::out_of_range);
}

// --- atomic save ------------------------------------------------------------

TEST(CheckpointAtomicSave, LeavesNoTempFile) {
  const Lattice lat = make_pin_lattice();
  const std::string path = temp_path("atomic.chk");
  save_lattice(path, lat);
  save_lattice(path, lat);  // over an existing file, too
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointAtomicSave, FailedSaveKeepsPreviousFile) {
  const Lattice lat = make_pin_lattice();
  const std::string path = temp_path("keep.chk");
  save_lattice(path, lat);
  const std::vector<char> before = slurp(path);
  // A directory where the temp file would go makes the save fail before
  // a single byte reaches the target.
  std::filesystem::create_directory(path + ".tmp");
  Lattice changed = make_pin_lattice();
  changed.step();
  EXPECT_THROW(save_lattice(path, changed), CheckpointError);
  EXPECT_EQ(slurp(path), before);
  std::filesystem::remove(path + ".tmp");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apr::io
