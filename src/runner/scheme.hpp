// The tuning schemes compared throughout the evaluation.
#pragma once

#include <array>
#include <string>

#include "common/time.hpp"
#include "dcqcn/params.hpp"

namespace paraleon::runner {

enum class Scheme {
  kDefaultStatic,   // NVIDIA defaults [21]
  kExpertStatic,    // Table I expert setting
  kCustomStatic,    // caller-provided (pretrained settings, Fig. 9)
  kParaleon,        // full system
  kParaleonNaiveSa,       // Fig. 12 ablation: unguided SA, slow cooling
  kParaleonNoFsd,         // Fig. 10 ablation: no flow size distribution
  kParaleonNetflow,       // Fig. 10: NetFlow monitoring source
  kParaleonNaiveSketch,   // Fig. 10: Elastic Sketch without control plane
  kParaleonRnicCounters,  // §V: monitoring from per-QP RNIC counters, no
                          // programmable switches needed
  kParaleonPerPod,        // §V: one scoped controller per ToR pod
  kAcc,             // switch-side RL ECN tuning baseline
  kDcqcnPlus,       // RNIC-side incast-adaptive baseline
};

/// One row of the scheme table.
struct SchemeNames {
  Scheme scheme;
  const char* file_name;     // a scenario file's "scheme.name"
  const char* display_name;  // tables, reports and bundle manifests
};

/// Every scheme once, in enum order: the one list scheme_name() and the
/// scenario layer's scheme_from_name()/scheme_names() read.
inline constexpr std::array<SchemeNames, 12> kSchemeTable = {{
    {Scheme::kDefaultStatic, "default", "Default"},
    {Scheme::kExpertStatic, "expert", "Expert"},
    {Scheme::kCustomStatic, "custom", "Pretrained"},
    {Scheme::kParaleon, "paraleon", "PARALEON"},
    {Scheme::kParaleonNaiveSa, "paraleon_naive_sa", "naive_SA"},
    {Scheme::kParaleonNoFsd, "paraleon_no_fsd", "No_FSD"},
    {Scheme::kParaleonNetflow, "paraleon_netflow", "NetFlow"},
    {Scheme::kParaleonNaiveSketch, "paraleon_naive_sketch", "ElasticSketch"},
    {Scheme::kParaleonRnicCounters, "paraleon_rnic_counters",
     "RNIC_counters"},
    {Scheme::kParaleonPerPod, "paraleon_per_pod", "PerPod"},
    {Scheme::kAcc, "acc", "ACC"},
    {Scheme::kDcqcnPlus, "dcqcn_plus", "DCQCN+"},
}};

/// The display name ("PARALEON", "DCQCN+").
std::string scheme_name(Scheme s);

/// Whether the scheme runs the PARALEON controller loop.
bool scheme_has_controller(Scheme s);

/// The initial DCQCN parameter preset a scheme starts from, ported to the
/// experiment's line rate (defaults are referenced to 100 Gbps, the expert
/// Table I values to the paper's 400 Gbps testbed).
dcqcn::DcqcnParams initial_params_for(Scheme s, Rate line_rate);

}  // namespace paraleon::runner
