#include "runner/scheme.hpp"

namespace paraleon::runner {

std::string scheme_name(Scheme s) {
  for (const SchemeNames& row : kSchemeTable) {
    if (row.scheme == s) return row.display_name;
  }
  return "?";
}

bool scheme_has_controller(Scheme s) {
  switch (s) {
    case Scheme::kParaleon:
    case Scheme::kParaleonNaiveSa:
    case Scheme::kParaleonNoFsd:
    case Scheme::kParaleonNetflow:
    case Scheme::kParaleonNaiveSketch:
    case Scheme::kParaleonRnicCounters:
    case Scheme::kParaleonPerPod:
      return true;
    default:
      return false;
  }
}

dcqcn::DcqcnParams initial_params_for(Scheme s, Rate line_rate) {
  switch (s) {
    case Scheme::kExpertStatic:
      return dcqcn::scaled_for_line_rate(dcqcn::expert_params(), gbps(400),
                                         line_rate);
    default:
      return dcqcn::scaled_for_line_rate(dcqcn::default_params(), gbps(100),
                                         line_rate);
  }
}

}  // namespace paraleon::runner
