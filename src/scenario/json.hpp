// The scenario layer's names for the common JSON module
// (common/json.hpp): scenario code and its callers spell the DOM
// scenario::Json and catch scenario::ScenarioError.
#pragma once

#include "common/json.hpp"

namespace paraleon::scenario {

using Json = common::Json;
using ScenarioError = common::JsonError;

}  // namespace paraleon::scenario
