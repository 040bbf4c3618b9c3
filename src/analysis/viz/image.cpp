#include "analysis/viz/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include "util/numeric.hpp"

namespace hia {

void Image::under(const Image& front) {
  HIA_REQUIRE(front.width() == width_ && front.height() == height_,
              "image dimensions mismatch");
  for (size_t i = 0; i < pixels_.size(); ++i) {
    const Rgba& f = front.pixels_[i];
    Rgba& b = pixels_[i];
    const float keep = 1.0f - f.a;
    b.r = f.r + keep * b.r;
    b.g = f.g + keep * b.g;
    b.b = f.b + keep * b.b;
    b.a = f.a + keep * b.a;
  }
}

void write_ppm(const Image& image, const std::string& path,
               float background) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HIA_REQUIRE(out.good(), "cannot open PPM for write: " + path);
  out << "P6\n" << image.width() << " " << image.height() << "\n255\n";
  // A NaN channel (a NaN sample composites to NaN) writes as 0; std::clamp
  // would pass it through to an undefined float-to-int conversion.
  auto to_byte = [](float v) {
    return static_cast<unsigned char>(
        (v > 0.0f ? std::min(v, 1.0f) : 0.0f) * 255.0f + 0.5f);
  };
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const Rgba& p = image.at(x, y);
      const float keep = 1.0f - p.a;
      const unsigned char rgb[3] = {to_byte(p.r + keep * background),
                                    to_byte(p.g + keep * background),
                                    to_byte(p.b + keep * background)};
      out.write(reinterpret_cast<const char*>(rgb), 3);
    }
  }
  HIA_REQUIRE(out.good(), "PPM write failed: " + path);
}

double image_mse(const Image& a, const Image& b) {
  HIA_REQUIRE(a.width() == b.width() && a.height() == b.height(),
              "image dimensions mismatch");
  double sum = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (size_t i = 0; i < pa.size(); ++i) {
    const double dr = pa[i].r - pb[i].r;
    const double dg = pa[i].g - pb[i].g;
    const double db = pa[i].b - pb[i].b;
    sum += dr * dr + dg * dg + db * db;
  }
  return sum / (3.0 * static_cast<double>(pa.size()));
}

std::vector<double> serialize_image(const Image& image) {
  std::vector<double> out;
  out.reserve(2 + static_cast<size_t>(image.width()) *
                      static_cast<size_t>(image.height()) * 4);
  out.push_back(image.width());
  out.push_back(image.height());
  for (const Rgba& p : image.pixels()) {
    out.push_back(p.r);
    out.push_back(p.g);
    out.push_back(p.b);
    out.push_back(p.a);
  }
  return out;
}

Image deserialize_image(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 2, "image payload too short");
  const size_t pixels = (data.size() - 2) / 4;
  const size_t w =
      rounded_below(data[0], pixels + 1, "image width exceeds payload");
  HIA_REQUIRE(w > 0, "image width must be positive");
  const size_t h =
      rounded_below(data[1], pixels / w + 1, "image height exceeds payload");
  HIA_REQUIRE(h > 0 && data.size() == 2 + w * h * 4,
              "image payload size mismatch");
  Image img(static_cast<int>(w), static_cast<int>(h));
  size_t off = 2;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      Rgba& p = img.at(x, y);
      p.r = static_cast<float>(data[off++]);
      p.g = static_cast<float>(data[off++]);
      p.b = static_cast<float>(data[off++]);
      p.a = static_cast<float>(data[off++]);
    }
  }
  return img;
}

double image_psnr(const Image& a, const Image& b) {
  const double mse = image_mse(a, b);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(1.0 / mse);
}

}  // namespace hia
