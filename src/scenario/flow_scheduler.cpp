#include "scenario/flow_scheduler.hpp"

#include "workload/incast_workload.hpp"
#include "workload/permutation_workload.hpp"
#include "workload/size_distribution.hpp"

namespace paraleon::scenario {

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Time stop_time(const WorkloadComponent& c) {
  return c.stop_ms < 0.0 ? kTimeNever : milliseconds(c.stop_ms);
}

std::int64_t flow_bytes(const WorkloadComponent& c) {
  return static_cast<std::int64_t>(c.flow_kb * 1024.0);
}

}  // namespace

FlowScheduler::FlowScheduler(const Scenario& scenario,
                             runner::Experiment* exp)
    : scenario_(scenario), exp_(exp) {}

std::uint64_t FlowScheduler::component_seed(std::uint64_t scenario_seed,
                                            const WorkloadComponent& c) {
  if (c.seed != 0) return c.seed;
  // Name-keyed, position-independent: removing a sibling component leaves
  // this stream untouched (Rng::reseed splitmixes, so nearby values still
  // yield uncorrelated streams).
  return scenario_seed ^ fnv1a64(c.name);
}

std::vector<int> FlowScheduler::resolve_hosts(const WorkloadComponent& c,
                                              int host_count) {
  const std::string ctx = "workload." + c.name;
  std::vector<int> out;
  if (!c.hosts.empty()) {
    for (const int h : c.hosts) {
      if (h < 0 || h >= host_count) {
        throw ScenarioError(ctx + ".hosts: host " + std::to_string(h) +
                            " is outside 0.." +
                            std::to_string(host_count - 1));
      }
      out.push_back(h);
    }
    return out;
  }
  if (c.workers < 1) return out;  // poisson default: every host
  if (c.workers > host_count) {
    throw ScenarioError(ctx + ": " + std::to_string(c.workers) +
                        " workers exceed the fabric's " +
                        std::to_string(host_count) + " hosts");
  }
  if (c.placement == "first") {
    for (int i = 0; i < c.workers; ++i) out.push_back(i);
    return out;
  }
  // "strided": worker i at i * (host_count / workers), the benches'
  // whole-fabric collective layout.
  const int stride = host_count / c.workers;
  for (int i = 0; i < c.workers; ++i) out.push_back(i * stride);
  return out;
}

std::vector<int> FlowScheduler::incast_senders(const WorkloadComponent& c,
                                               int host_count) {
  const std::string ctx = "workload." + c.name;
  if (c.receiver < 0 || c.receiver >= host_count) {
    throw ScenarioError(ctx + ".receiver is outside the fabric");
  }
  std::vector<int> senders;
  for (const int h : resolve_hosts(c, host_count)) {
    if (h != c.receiver) senders.push_back(h);
  }
  if (senders.empty()) {
    throw ScenarioError(ctx + ": no senders besides the receiver");
  }
  return senders;
}

void FlowScheduler::check_placement(const Scenario& sc) {
  const int hosts = host_count(sc.topology);
  for (const WorkloadComponent& c : sc.workload) {
    if (c.kind == WorkloadComponent::Kind::kIncast) {
      incast_senders(c, hosts);
    } else {
      resolve_hosts(c, hosts);
    }
  }
}

workload::Workload* FlowScheduler::find(const std::string& name) const {
  for (const auto& inst : installed_) {
    if (inst.name == name) return inst.workload;
  }
  return nullptr;
}

void FlowScheduler::install_one(const WorkloadComponent& c) {
  const int host_count = exp_->topology().host_count();
  Installed inst;
  inst.name = c.name;
  inst.tenant = c.tenant;
  inst.kind = c.kind;

  switch (c.kind) {
    case WorkloadComponent::Kind::kAlltoall: {
      workload::AlltoallConfig a2a;
      a2a.workers = resolve_hosts(c, host_count);
      a2a.flow_size = flow_bytes(c);
      a2a.off_period = milliseconds(c.off_period_ms);
      a2a.start = milliseconds(c.start_ms);
      a2a.stop = stop_time(c);
      a2a.max_rounds = c.max_rounds;
      inst.workload = &exp_->add_alltoall(a2a);
      break;
    }
    case WorkloadComponent::Kind::kPoisson: {
      workload::PoissonConfig p;
      p.hosts = c.hosts.empty() ? exp_->all_hosts()
                                : resolve_hosts(c, host_count);
      p.sizes = c.sizes == "solar_rpc"
                    ? &workload::solar_rpc_distribution()
                    : &workload::fb_hadoop_distribution();
      p.load = c.load;
      p.start = milliseconds(c.start_ms);
      p.stop = stop_time(c);
      p.seed = component_seed(scenario_.seed, c);
      inst.workload = &exp_->add_poisson(p);
      break;
    }
    case WorkloadComponent::Kind::kIncast: {
      workload::IncastConfig in;
      in.senders = incast_senders(c, host_count);
      in.receiver = c.receiver;
      in.flow_size = flow_bytes(c);
      in.period = milliseconds(c.period_ms);
      in.start = milliseconds(c.start_ms);
      in.stop = stop_time(c);
      in.max_rounds = c.max_rounds;
      in.flow_id_base = exp_->next_workload_flow_base();
      inst.workload = &exp_->add_workload(
          std::make_unique<workload::IncastWorkload>(in));
      break;
    }
    case WorkloadComponent::Kind::kPermutation: {
      workload::PermutationConfig perm;
      perm.workers = resolve_hosts(c, host_count);
      perm.flow_size = flow_bytes(c);
      perm.period = milliseconds(c.period_ms);
      perm.start = milliseconds(c.start_ms);
      perm.stop = stop_time(c);
      perm.max_rounds = c.max_rounds;
      perm.seed = component_seed(scenario_.seed, c);
      perm.flow_id_base = exp_->next_workload_flow_base();
      inst.workload = &exp_->add_workload(
          std::make_unique<workload::PermutationWorkload>(perm));
      break;
    }
  }
  installed_.push_back(inst);
}

void FlowScheduler::install_all() {
  for (const auto& c : scenario_.workload) install_one(c);
}

}  // namespace paraleon::scenario
