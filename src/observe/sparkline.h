// Shared inline-SVG sparkline + HTML-escaping helpers.
//
// Shared by the history dashboard (history.cpp), which draws the
// sparklines, and the HTML run report (report.cpp), which escapes through
// html_escape. Everything here emits self-contained markup — no scripts,
// no external references — which both pages' self-containment checks
// rely on.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace tsyn::observe {

/// Observable-10-ish palette shared by every dashboard surface.
inline constexpr const char* kSparkBlue = "#4269d0";
inline constexpr const char* kSparkOrange = "#efb118";
inline constexpr const char* kSparkRed = "#ff725c";
inline constexpr const char* kSparkGreen = "#3ca951";

/// `s` with &, <, >, " replaced by entities.
std::string html_escape(const std::string& s);

/// Inline sparkline: a polyline over `ys` scaled into a fixed 120x26
/// viewBox, with the last point marked. Flat series draw a midline.
/// Styling hook: the svg carries class="spark".
void append_sparkline(std::ostream& os, const std::vector<double>& ys,
                      const char* color);

}  // namespace tsyn::observe
