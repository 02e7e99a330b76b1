#include "img/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sc::img {

Image::Image(std::size_t width, std::size_t height, double fill)
    : width_(width), height_(height), pixels_(width * height, fill) {}

void Image::clamp() {
  for (double& p : pixels_) p = std::clamp(p, 0.0, 1.0);
}

Image Image::gradient(std::size_t width, std::size_t height) {
  Image out(width, height);
  const double denom =
      std::max<double>(1.0, static_cast<double>(width + height - 2));
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(x, y) = static_cast<double>(x + y) / denom;
    }
  }
  return out;
}

Image Image::checkerboard(std::size_t width, std::size_t height,
                          std::size_t cell) {
  if (cell == 0) {
    throw std::invalid_argument("Image::checkerboard: cell must be >= 1");
  }
  Image out(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(x, y) = ((x / cell + y / cell) % 2 == 0) ? 0.85 : 0.15;
    }
  }
  return out;
}

Image Image::blobs(std::size_t width, std::size_t height, std::uint64_t seed,
                   std::size_t count) {
  Image out(width, height, 0.1);
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> ux(0.0, static_cast<double>(width));
  std::uniform_real_distribution<double> uy(0.0, static_cast<double>(height));
  std::uniform_real_distribution<double> usigma(
      static_cast<double>(width) / 12.0, static_cast<double>(width) / 5.0);
  std::uniform_real_distribution<double> uamp(0.3, 0.8);
  for (std::size_t b = 0; b < count; ++b) {
    const double cx = ux(gen);
    const double cy = uy(gen);
    const double sigma = usigma(gen);
    const double amp = uamp(gen);
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        out.at(x, y) += amp * std::exp(-(dx * dx + dy * dy) /
                                       (2.0 * sigma * sigma));
      }
    }
  }
  out.clamp();
  return out;
}

Image Image::synthetic_scene(std::size_t width, std::size_t height,
                             std::uint64_t seed) {
  Image out = blobs(width, height, seed);
  // Hard-edged square (exercises the edge detector).
  const std::size_t x0 = width / 5;
  const std::size_t y0 = height / 5;
  const std::size_t x1 = std::min(width - 1, x0 + width / 3);
  const std::size_t y1 = std::min(height - 1, y0 + height / 3);
  for (std::size_t y = y0; y <= y1; ++y) {
    for (std::size_t x = x0; x <= x1; ++x) {
      out.at(x, y) = 0.9;
    }
  }
  // Mild deterministic texture.
  std::mt19937_64 gen(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      out.at(x, y) += noise(gen);
    }
  }
  out.clamp();
  return out;
}

Image Image::load_pgm(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return Image{};
  };
  if (!in) return fail("cannot open " + path);

  std::string magic;
  in >> magic;
  if (magic != "P5" && magic != "P2") return fail("not a PGM file: " + path);

  auto next_token = [&in]() {
    std::string token;
    while (in >> token) {
      if (token[0] == '#') {
        std::string line;
        std::getline(in, line);
        continue;
      }
      return token;
    }
    return std::string{};
  };

  const std::string ws = next_token();
  const std::string hs = next_token();
  const std::string ms = next_token();
  if (ws.empty() || hs.empty() || ms.empty()) return fail("truncated header");
  const std::size_t width = std::stoul(ws);
  const std::size_t height = std::stoul(hs);
  const int maxval = std::stoi(ms);
  if (width == 0 || height == 0 || maxval <= 0 || maxval > 255) {
    return fail("unsupported PGM geometry");
  }

  Image out(width, height);
  if (magic == "P5") {
    in.get();  // single whitespace after maxval
    std::vector<unsigned char> raw(width * height);
    in.read(reinterpret_cast<char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
    if (!in) return fail("truncated raster");
    for (std::size_t i = 0; i < raw.size(); ++i) {
      out.at(i % width, i / width) =
          static_cast<double>(raw[i]) / static_cast<double>(maxval);
    }
  } else {
    for (std::size_t i = 0; i < width * height; ++i) {
      int v = 0;
      if (!(in >> v)) return fail("truncated raster");
      out.at(i % width, i / width) =
          static_cast<double>(v) / static_cast<double>(maxval);
    }
  }
  return out;
}

bool Image::save_pgm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "P5\n" << width_ << " " << height_ << "\n255\n";
  for (double p : pixels_) {
    const int v = static_cast<int>(
        std::lround(std::clamp(p, 0.0, 1.0) * 255.0));
    out.put(static_cast<char>(v));
  }
  return static_cast<bool>(out);
}

namespace {

/// Throws std::invalid_argument naming `where` unless a and b have the
/// same dimensions: the metrics walk both pixel arrays in step.
void require_same_dimensions(const char* where, const Image& a,
                             const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument(
        std::string(where) + ": images differ in size (" +
        std::to_string(a.width()) + "x" + std::to_string(a.height()) +
        " vs " + std::to_string(b.width()) + "x" +
        std::to_string(b.height()) + ")");
  }
}

}  // namespace

double mean_abs_error(const Image& a, const Image& b) {
  require_same_dimensions("img::mean_abs_error", a, b);
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    sum += std::abs(a.pixels()[i] - b.pixels()[i]);
  }
  return sum / static_cast<double>(a.pixels().size());
}

double max_abs_error(const Image& a, const Image& b) {
  require_same_dimensions("img::max_abs_error", a, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    worst = std::max(worst, std::abs(a.pixels()[i] - b.pixels()[i]));
  }
  return worst;
}

}  // namespace sc::img
