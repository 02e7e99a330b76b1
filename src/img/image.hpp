/// \file image.hpp
/// Grayscale float image substrate for the paper's §IV case study:
/// container, clamped addressing, PGM I/O, synthetic scenes, and
/// image-level error metrics.
///
/// Pixels are doubles in [0, 1].  The paper's evaluation needs input images
/// only as workloads whose SC result is compared against the floating-point
/// pipeline on the *same* image, so deterministic synthetic scenes (with
/// realistic gradients, edges, and texture) substitute for the authors'
/// unspecified test images; PGM I/O lets users run their own.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sc::img {

/// Row-major grayscale image with values in [0, 1].
class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, double fill = 0.0);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] std::size_t pixel_count() const { return width_ * height_; }
  [[nodiscard]] bool empty() const { return pixel_count() == 0; }

  /// Unchecked access; (x, y) must be inside the image.
  [[nodiscard]] double at(std::size_t x, std::size_t y) const {
    return pixels_[y * width_ + x];
  }
  double& at(std::size_t x, std::size_t y) { return pixels_[y * width_ + x]; }

  /// Border-clamped access: coordinates are clamped into the image, the
  /// convention used by both the float reference kernels and the SC tiles.
  [[nodiscard]] double at_clamped(std::ptrdiff_t x, std::ptrdiff_t y) const {
    const auto cx = std::clamp<std::ptrdiff_t>(
        x, 0, static_cast<std::ptrdiff_t>(width_) - 1);
    const auto cy = std::clamp<std::ptrdiff_t>(
        y, 0, static_cast<std::ptrdiff_t>(height_) - 1);
    return at(static_cast<std::size_t>(cx), static_cast<std::size_t>(cy));
  }

  const std::vector<double>& pixels() const { return pixels_; }

  /// Clamps every pixel into [0, 1].
  void clamp();

  // --- synthetic scenes ---------------------------------------------------

  /// Smooth diagonal gradient.
  static Image gradient(std::size_t width, std::size_t height);
  /// Checkerboard with `cell`-pixel squares (hard edges).  cell 0 throws
  /// std::invalid_argument.
  static Image checkerboard(std::size_t width, std::size_t height,
                            std::size_t cell);
  /// Sum of randomly placed Gaussian blobs (smooth structure), seeded.
  static Image blobs(std::size_t width, std::size_t height,
                     std::uint64_t seed, std::size_t count = 6);
  /// Blobs + edges + mild deterministic noise: the default benchmark scene.
  static Image synthetic_scene(std::size_t width, std::size_t height,
                               std::uint64_t seed);

  // --- PGM I/O --------------------------------------------------------------

  /// Loads a binary (P5) or ASCII (P2) PGM.  Returns an empty image and
  /// fills `error` (if non-null) on failure.
  static Image load_pgm(const std::string& path, std::string* error = nullptr);
  /// Writes a binary (P5) 8-bit PGM.  Returns false on I/O failure.
  [[nodiscard]] bool save_pgm(const std::string& path) const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<double> pixels_;
};

/// Mean absolute per-pixel difference (the paper's image "Abs. Error").
/// Images of different dimensions throw std::invalid_argument.
double mean_abs_error(const Image& a, const Image& b);

/// Largest absolute per-pixel difference (same dimension rule).
double max_abs_error(const Image& a, const Image& b);

}  // namespace sc::img
