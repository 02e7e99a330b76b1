/// \file json.hpp
/// The one JSON string escaper: the metrics snapshot, Chrome trace,
/// profile, analyzer report and sc_lint writers all quote text through it.

#pragma once

#include <string>
#include <string_view>

namespace sc {

/// `text` escaped for a JSON string literal: `"`, `\`, newline, tab and
/// carriage return by name, every other byte below 0x20 as \u00XX, and
/// every other byte unchanged.
std::string json_escape(std::string_view text);

}  // namespace sc
