// A scalar field on a local block, optionally with ghost layers.
//
// Storage covers the block grown by `ghost` cells (clamped to the domain);
// interior indexing uses *global* coordinates so analysis code never
// translates indices by hand.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/box.hpp"

namespace hia {

class Field {
 public:
  /// A field over `owned`, with `ghost` extra layers clamped to `domain`.
  Field(std::string name, const Box3& owned, const Box3& domain,
        int ghost = 0)
      : name_(std::move(name)),
        owned_(owned),
        storage_(owned.grown(ghost, domain)),
        data_(static_cast<size_t>(storage_.num_cells()), 0.0) {}

  /// Ghost-free field over `owned`.
  Field(std::string name, const Box3& owned)
      : Field(std::move(name), owned, owned, 0) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Box3& owned() const { return owned_; }
  /// The storage box (owned + ghosts).
  [[nodiscard]] const Box3& storage() const { return storage_; }

  [[nodiscard]] double& at(int64_t i, int64_t j, int64_t k) {
    return data_[storage_.offset(i, j, k)];
  }
  [[nodiscard]] double at(int64_t i, int64_t j, int64_t k) const {
    return data_[storage_.offset(i, j, k)];
  }

  /// Address of (i, j, k); the rest of its x row within storage() follows
  /// contiguously, so row loops index it without per-cell bounds checks.
  [[nodiscard]] double* ptr(int64_t i, int64_t j, int64_t k) {
    return &data_[storage_.offset(i, j, k)];
  }
  [[nodiscard]] const double* ptr(int64_t i, int64_t j, int64_t k) const {
    return &data_[storage_.offset(i, j, k)];
  }

  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// Copies the owned region (no ghosts) into a packed x-fastest buffer.
  [[nodiscard]] std::vector<double> pack_owned() const { return pack(owned_); }

  /// Copies an arbitrary sub-box (must lie in storage) into a packed buffer.
  [[nodiscard]] std::vector<double> pack(const Box3& box) const {
    HIA_REQUIRE(storage_.contains(box), "pack box outside field storage");
    std::vector<double> out;
    if (box.empty()) return out;
    out.reserve(static_cast<size_t>(box.num_cells()));
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
        const double* row = ptr(box.lo[0], j, k);
        out.insert(out.end(), row, row + box.extent(0));
      }
    return out;
  }

  /// Fills a sub-box (must lie in storage) from a packed buffer.
  void unpack(const Box3& box, std::span<const double> values) {
    HIA_REQUIRE(storage_.contains(box), "unpack box outside field storage");
    HIA_REQUIRE(static_cast<int64_t>(values.size()) == box.num_cells(),
                "unpack buffer size mismatch");
    if (box.empty()) return;
    const double* src = values.data();
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
        std::copy_n(src, box.extent(0), ptr(box.lo[0], j, k));
        src += box.extent(0);
      }
  }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::string name_;
  Box3 owned_;
  Box3 storage_;
  std::vector<double> data_;
};

/// Streams the owned values of `fields` (all over one owned box) in
/// storage order, x fastest, through one stack buffer of kChunk values per
/// field: fn gets one span per field for each full buffer, then one for
/// the rest. Field f's spans, end to end, are f.pack_owned(), so a learn
/// that chunks at kChunk gives the learn of the packed block bit for bit.
template <size_t kChunk, size_t N, class Fn>
void stream_owned(const std::array<const Field*, N>& fields, Fn&& fn) {
  const Box3& box = fields[0]->owned();
  for (const Field* f : fields) {
    HIA_REQUIRE(f->owned() == box, "fields must share the owned box");
  }
  if (box.empty()) return;
  double buffer[N][kChunk];
  size_t filled = 0;
  const auto flush = [&] {
    std::array<std::span<const double>, N> chunks;
    for (size_t f = 0; f < N; ++f) chunks[f] = {buffer[f], filled};
    fn(chunks);
    filled = 0;
  };
  const auto row = static_cast<size_t>(box.extent(0));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (size_t done = 0; done < row;) {
        const size_t take = std::min(row - done, kChunk - filled);
        const int64_t i = box.lo[0] + static_cast<int64_t>(done);
        for (size_t f = 0; f < N; ++f) {
          std::copy_n(fields[f]->ptr(i, j, k), take, buffer[f] + filled);
        }
        filled += take;
        done += take;
        if (filled == kChunk) flush();
      }
    }
  }
  if (filled > 0) flush();
}

}  // namespace hia
