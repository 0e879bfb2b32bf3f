// Console reporting helpers shared by the benches and examples: aligned
// table rows, number formatting, and the standard scaling-note header.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace paraleon::runner {

inline void print_header(const std::string& title,
                         const std::string& scaling_note) {
  std::printf(
      "\n============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!scaling_note.empty())
    std::printf("# scaling: %s\n", scaling_note.c_str());
  std::printf("============================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace paraleon::runner
