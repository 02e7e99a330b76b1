/// \file span.hpp
/// sc::span, the name the library's interfaces spell for std::span.
/// Non-owning view; the referenced data must outlive the span.

#pragma once

#include <span>

namespace sc {

template <typename T>
using span = std::span<T>;

}  // namespace sc
