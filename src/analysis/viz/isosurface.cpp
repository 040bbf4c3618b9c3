#include "analysis/viz/isosurface.hpp"

#include <array>
#include <cmath>
#include <fstream>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

double TriangleMesh::area() const {
  double total = 0.0;
  for (const auto& t : triangles) {
    const Vec3& a = vertices[t[0]];
    const Vec3& b = vertices[t[1]];
    const Vec3& c = vertices[t[2]];
    total += 0.5 * (b - a).cross(c - a).norm();
  }
  return total;
}

void TriangleMesh::append(const TriangleMesh& other) {
  const auto base = static_cast<uint32_t>(vertices.size());
  vertices.insert(vertices.end(), other.vertices.begin(),
                  other.vertices.end());
  triangles.reserve(triangles.size() + other.triangles.size());
  for (const auto& t : other.triangles) {
    triangles.push_back({t[0] + base, t[1] + base, t[2] + base});
  }
}

std::vector<double> TriangleMesh::serialize() const {
  std::vector<double> out;
  out.reserve(2 + vertices.size() * 3 + triangles.size() * 3);
  out.push_back(static_cast<double>(vertices.size()));
  out.push_back(static_cast<double>(triangles.size()));
  for (const Vec3& v : vertices) {
    out.push_back(v.x);
    out.push_back(v.y);
    out.push_back(v.z);
  }
  for (const auto& t : triangles) {
    out.push_back(t[0]);
    out.push_back(t[1]);
    out.push_back(t[2]);
  }
  return out;
}

TriangleMesh TriangleMesh::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 2, "mesh payload too short");
  TriangleMesh m;
  const size_t body = data.size() - 2;
  const size_t nv =
      rounded_below(data[0], body / 3 + 1, "mesh vertex count exceeds payload");
  const size_t nt = rounded_below(data[1], (body - nv * 3) / 3 + 1,
                                  "mesh triangle count exceeds payload");
  HIA_REQUIRE(body == nv * 3 + nt * 3, "mesh payload size mismatch");
  size_t off = 2;
  m.vertices.reserve(nv);
  for (size_t v = 0; v < nv; ++v) {
    m.vertices.push_back(
        Vec3{data[off], data[off + 1], data[off + 2]});
    off += 3;
  }
  m.triangles.reserve(nt);
  for (size_t t = 0; t < nt; ++t) {
    auto& tri = m.triangles.emplace_back();
    for (uint32_t& idx : tri) {
      idx = static_cast<uint32_t>(
          rounded_below(data[off++], nv, "mesh triangle index out of range"));
    }
  }
  return m;
}

namespace {

// Kuhn (Freudenthal) subdivision: 6 tetrahedra per cell, all sharing the
// main diagonal corner0-corner6. Identical in every cell, which makes the
// induced face triangulation globally consistent (crack-free).
// Cube corner numbering: bit 0 = +x, bit 1 = +y, bit 2 = +z.
constexpr std::array<std::array<int, 4>, 6> kTets{{{0, 1, 3, 7},
                                                   {0, 1, 5, 7},
                                                   {0, 4, 5, 7},
                                                   {0, 4, 6, 7},
                                                   {0, 2, 6, 7},
                                                   {0, 2, 3, 7}}};

Vec3 interpolate(const Vec3& pa, const Vec3& pb, double fa, double fb,
                 double iso) {
  const double denom = fb - fa;
  const double t = denom == 0.0 ? 0.5 : (iso - fa) / denom;
  return pa + (pb - pa) * t;
}

void march_tet(const std::array<Vec3, 8>& pos,
               const std::array<double, 8>& val,
               const std::array<int, 4>& tet, double iso,
               TriangleMesh& mesh) {
  int above_mask = 0;
  for (int c = 0; c < 4; ++c) {
    if (val[static_cast<size_t>(tet[static_cast<size_t>(c)])] >= iso) {
      above_mask |= 1 << c;
    }
  }
  if (above_mask == 0 || above_mask == 15) return;

  auto edge_point = [&](int a, int b) {
    const int ia = tet[static_cast<size_t>(a)];
    const int ib = tet[static_cast<size_t>(b)];
    return interpolate(pos[static_cast<size_t>(ia)],
                       pos[static_cast<size_t>(ib)],
                       val[static_cast<size_t>(ia)],
                       val[static_cast<size_t>(ib)], iso);
  };
  auto emit = [&](const Vec3& a, const Vec3& b, const Vec3& c) {
    const auto base = static_cast<uint32_t>(mesh.vertices.size());
    mesh.vertices.push_back(a);
    mesh.vertices.push_back(b);
    mesh.vertices.push_back(c);
    mesh.triangles.push_back({base, base + 1, base + 2});
  };

  // One corner separated (1 or 3 above): single triangle. Two-and-two:
  // a quad split into two triangles.
  switch (above_mask) {
    case 1: case 14:
      emit(edge_point(0, 1), edge_point(0, 2), edge_point(0, 3));
      break;
    case 2: case 13:
      emit(edge_point(1, 0), edge_point(1, 2), edge_point(1, 3));
      break;
    case 4: case 11:
      emit(edge_point(2, 0), edge_point(2, 1), edge_point(2, 3));
      break;
    case 8: case 7:
      emit(edge_point(3, 0), edge_point(3, 1), edge_point(3, 2));
      break;
    case 3: case 12: {  // {0,1} vs {2,3}
      const Vec3 a = edge_point(0, 2), b = edge_point(0, 3);
      const Vec3 c = edge_point(1, 3), d = edge_point(1, 2);
      emit(a, b, c);
      emit(a, c, d);
      break;
    }
    case 5: case 10: {  // {0,2} vs {1,3}
      const Vec3 a = edge_point(0, 1), b = edge_point(0, 3);
      const Vec3 c = edge_point(2, 3), d = edge_point(2, 1);
      emit(a, b, c);
      emit(a, c, d);
      break;
    }
    case 6: case 9: {  // {1,2} vs {0,3}
      const Vec3 a = edge_point(1, 0), b = edge_point(1, 3);
      const Vec3 c = edge_point(2, 3), d = edge_point(2, 0);
      emit(a, b, c);
      emit(a, c, d);
      break;
    }
    default:
      HIA_ASSERT(false);
  }
}

}  // namespace

TriangleMesh extract_isosurface(const GlobalGrid& grid, const Box3& box,
                                std::span<const double> values, double iso) {
  HIA_REQUIRE(values.size() == static_cast<size_t>(box.num_cells()),
              "value buffer does not match box");
  TriangleMesh mesh;

  for (int64_t k = box.lo[2]; k < box.hi[2] - 1; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1] - 1; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0] - 1; ++i) {
        std::array<Vec3, 8> pos;
        std::array<double, 8> val;
        bool any_above = false, any_below = false;
        for (int c = 0; c < 8; ++c) {
          const int64_t ci = i + (c & 1);
          const int64_t cj = j + ((c >> 1) & 1);
          const int64_t ck = k + ((c >> 2) & 1);
          pos[static_cast<size_t>(c)] =
              Vec3{grid.coord(0, ci), grid.coord(1, cj), grid.coord(2, ck)};
          const double v = values[box.offset(ci, cj, ck)];
          val[static_cast<size_t>(c)] = v;
          (v >= iso ? any_above : any_below) = true;
        }
        if (!any_above || !any_below) continue;
        for (const auto& tet : kTets) {
          march_tet(pos, val, tet, iso, mesh);
        }
      }
    }
  }
  return mesh;
}

void write_obj(const TriangleMesh& mesh, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  HIA_REQUIRE(out.good(), "cannot open OBJ for write: " + path);
  out << "# HIA isosurface: " << mesh.num_vertices() << " vertices, "
      << mesh.num_triangles() << " triangles\n";
  for (const Vec3& v : mesh.vertices) {
    out << "v " << v.x << " " << v.y << " " << v.z << "\n";
  }
  for (const auto& t : mesh.triangles) {
    out << "f " << t[0] + 1 << " " << t[1] + 1 << " " << t[2] + 1 << "\n";
  }
  HIA_REQUIRE(out.good(), "OBJ write failed: " + path);
}

}  // namespace hia
