#include "core/cluster.hpp"

#include <chrono>
#include <map>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "core/thread_collection.hpp"
#include "net/inproc_transport.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace dps {

namespace {
std::vector<std::string> default_names(int n) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) names.push_back("node" + std::to_string(i));
  return names;
}
}  // namespace

ClusterConfig ClusterConfig::inproc(int node_count) {
  ClusterConfig cfg;
  cfg.nodes = default_names(node_count);
  cfg.fabric = FabricKind::kInproc;
  return cfg;
}

ClusterConfig ClusterConfig::tcp(int node_count) {
  ClusterConfig cfg;
  cfg.nodes = default_names(node_count);
  cfg.fabric = FabricKind::kTcp;
  return cfg;
}

ClusterConfig ClusterConfig::simulated(int node_count, LinkModel link) {
  ClusterConfig cfg;
  cfg.nodes = default_names(node_count);
  cfg.fabric = FabricKind::kSim;
  cfg.link = link;
  return cfg;
}

ClusterConfig ClusterConfig::shm(int node_count) {
  ClusterConfig cfg;
  cfg.nodes = default_names(node_count);
  cfg.fabric = FabricKind::kShm;
  return cfg;
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  DPS_CHECK(!config_.nodes.empty(), "cluster needs at least one node");
  const size_t n = config_.nodes.size();
  if (config_.external_fabric) {
    domain_ = std::make_unique<WallDomain>();
    fabric_ = config_.external_fabric;
  } else {
    switch (config_.fabric) {
      case ClusterConfig::FabricKind::kInproc:
        domain_ = std::make_unique<WallDomain>();
        fabric_ = std::make_unique<InprocFabric>(n);
        break;
      case ClusterConfig::FabricKind::kTcp: {
        domain_ = std::make_unique<WallDomain>();
        auto tcp = std::make_shared<TcpFabric>(n);
        tcp->set_node_names(config_.nodes);
        fabric_ = std::move(tcp);
        break;
      }
      case ClusterConfig::FabricKind::kSim:
        domain_ = std::make_unique<SimDomain>(config_.sim_cpus_per_node);
        fabric_ = std::make_unique<SimFabric>(n, *domain_, config_.link);
        break;
      case ClusterConfig::FabricKind::kShm:
        domain_ = std::make_unique<WallDomain>();
        fabric_ = std::make_unique<ShmFabric>(n);
        break;
    }
  }
  if (config_.fault.enabled()) {
    if (simulated()) {
      DPS_WARN(
          "fault tolerance (reliable delivery / heartbeats) is a wall-clock "
          "mechanism and is disabled under virtual time");
    } else {
      reliable_ = std::make_shared<ReliableFabric>(fabric_, n, config_.fault);
      fabric_ = reliable_;
    }
  }
  services_ = std::make_unique<NameRegistry>(*domain_);
  controllers_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    controllers_.push_back(std::make_unique<Controller>(*this, i));
    Controller* c = controllers_.back().get();
    if (is_local(i)) {
      fabric_->attach(i,
                      [c](NodeMessage&& msg) { c->on_fabric(std::move(msg)); });
      // Batching fabrics (TCP) prefer grouped delivery: one controller
      // entry per received chunk instead of one per frame.
      fabric_->attach_batch(i, [c](std::vector<NodeMessage>&& msgs) {
        c->on_fabric_batch(std::move(msgs));
      });
    }
  }
  if (reliable_) monitor_ = std::thread([this] { monitor_loop(); });
}

Cluster::~Cluster() { shutdown(); }

NodeId Cluster::node_id(const std::string& name) const {
  for (NodeId i = 0; i < config_.nodes.size(); ++i) {
    if (config_.nodes[i] == name) return i;
  }
  raise(Errc::kNotFound, "unknown node '" + name + "'");
}

const std::string& Cluster::node_name(NodeId node) const {
  DPS_CHECK(node < config_.nodes.size(), "node id out of range");
  return config_.nodes[node];
}

Controller& Cluster::controller(NodeId node) {
  DPS_CHECK(node < controllers_.size(), "node id out of range");
  return *controllers_[node];
}

// --- Tenants (docs/SERVICE_MESH.md) ------------------------------------------

bool Cluster::DeadlineGate::enter() {
  MutexLock lock(mu);
  if (closed) return false;
  ++active;
  return true;
}

void Cluster::DeadlineGate::leave() {
  MutexLock lock(mu);
  if (--active == 0) cv.notify_all();
}

void Cluster::DeadlineGate::close() {
  MutexLock lock(mu);
  closed = true;
  cv.wait(mu, [&]() DPS_REQUIRES(mu) { return active == 0; });
}

TenantId Cluster::register_tenant(const std::string& name,
                                  const TenantConfig& config) {
  TenantId id = kNoTenant;
  TenantConfig recorded = config;
  {
    MutexLock lock(tenant_mu_);
    for (size_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i].name == name) {
        // Re-join under the same identity (tenant churn): keep the
        // budgets the first registration configured.
        id = static_cast<TenantId>(i + 1);
        recorded = tenants_[i].config;
        break;
      }
    }
    if (id == kNoTenant) {
      tenants_.push_back(TenantRec{name, config});
      id = static_cast<TenantId>(tenants_.size());
    }
  }
  services_->publish(kTenantRecordPrefix + name,
                     encode_tenant_record(id, recorded));
  return id;
}

void Cluster::set_tenant_config(TenantId tenant, const TenantConfig& config) {
  std::string name;
  {
    MutexLock lock(tenant_mu_);
    DPS_CHECK(tenant != kNoTenant && tenant <= tenants_.size(),
              "set_tenant_config on unknown tenant");
    tenants_[tenant - 1].config = config;
    name = tenants_[tenant - 1].name;
  }
  services_->publish(kTenantRecordPrefix + name,
                     encode_tenant_record(tenant, config));
}

TenantConfig Cluster::tenant_config(TenantId tenant) const {
  MutexLock lock(tenant_mu_);
  if (tenant == kNoTenant || tenant > tenants_.size()) return TenantConfig{};
  return tenants_[tenant - 1].config;
}

std::string Cluster::tenant_name(TenantId tenant) const {
  MutexLock lock(tenant_mu_);
  if (tenant == kNoTenant || tenant > tenants_.size()) return "<none>";
  return tenants_[tenant - 1].name;
}

AppId Cluster::register_app(Application* app) {
  MutexLock lock(mu_);
  return static_cast<AppId>(apps_.push_back(app) + 1);
}

void Cluster::unregister_app(AppId id) {
  if (auto* slot = apps_.find(id - 1)) {
    slot->store(nullptr, std::memory_order_release);
  }
}

Application* Cluster::app(AppId id) const {
  const auto* slot = apps_.find(id - 1);
  Application* app =
      slot != nullptr ? slot->load(std::memory_order_acquire) : nullptr;
  if (app == nullptr) {
    raise(Errc::kNotFound, "no application " + std::to_string(id) +
                               " on this cluster");
  }
  return app;
}

CollectionId Cluster::register_collection(
    std::shared_ptr<ThreadCollectionBase> collection) {
  MutexLock lock(mu_);
  return static_cast<CollectionId>(
      collections_.push_back(std::move(collection)));
}

ThreadCollectionBase* Cluster::collection(CollectionId id) const {
  const auto* slot = collections_.find(id);
  if (slot == nullptr) {
    raise(Errc::kNotFound, "unknown thread collection " + std::to_string(id));
  }
  return slot->get();
}

CallId Cluster::new_call_id() {
  return next_call_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<detail::CallState> Cluster::create_call(CallId id) {
  auto state = std::make_shared<detail::CallState>();
  state->domain = domain_.get();
  MutexLock lock(mu_);
  if (!dead_.empty()) {
    // Fail fast: a degraded cluster stays failed until recovered into a
    // fresh one (docs/FAULT_TOLERANCE.md); new calls would stall on the
    // dead node's threads.
    state->failed = true;
    state->err = Errc::kNodeDown;
    state->err_msg = "cluster has dead nodes; build a recovery cluster "
                     "(degraded_config/recover_cluster) before calling again";
    state->done = true;
    return state;
  }
  calls_.emplace(id, state);
  return state;
}

void Cluster::complete_call(CallId id, Ptr<Token> result) {
  std::shared_ptr<detail::CallState> state;
  {
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    if (it == calls_.end()) {
      DPS_WARN("stray result for unknown call " << id);
      return;
    }
    state = std::move(it->second);
    calls_.erase(it);
  }
  retire_admission(*state, /*deadline_expired=*/false);
  if (state->continuation) {
    // Graph-call vertices continue the client graph; must not block.
    auto continuation = std::move(state->continuation);
    continuation(std::move(result));
    return;
  }
  MutexLock lock(state->mu);
  state->result = std::move(result);
  state->done = true;
  domain_->notify_all(state->wp);
}

void Cluster::retire_admission(detail::CallState& state,
                               bool deadline_expired) {
  TenantId tenant = kNoTenant;
  NodeId node = 0;
  {
    MutexLock lock(state.mu);
    if (!state.admitted) return;
    state.admitted = false;
    tenant = state.tenant;
    node = state.admit_node;
  }
  controller(node).retire_call(tenant, deadline_expired);
}

void Cluster::bind_admission(detail::CallState& state, TenantId tenant,
                             NodeId node) {
  {
    MutexLock lock(state.mu);
    if (!state.done) {
      state.tenant = tenant;
      state.admit_node = node;
      state.admitted = true;
      return;
    }
  }
  // Pre-failed call: it never entered the call table, so complete_call /
  // fail_all_calls / expire_call will never retire it.
  controller(node).retire_call(tenant, /*deadline_expired=*/false);
}

void Cluster::arm_deadline(CallId id, double seconds) {
  DPS_CHECK(seconds > 0, "deadline must be positive");
  domain_->post_event(seconds, [this, id, gate = deadline_gate_] {
    if (!gate->enter()) return;  // cluster already shutting down
    expire_call(id);
    gate->leave();
  });
}

void Cluster::expire_call(CallId id) {
  std::shared_ptr<detail::CallState> state;
  {
    MutexLock lock(mu_);
    auto it = calls_.find(id);
    if (it == calls_.end()) return;  // completed (or failed) in time
    state = std::move(it->second);
    calls_.erase(it);
  }
  retire_admission(*state, /*deadline_expired=*/true);
  std::function<void(Ptr<Token>)> continuation;
  {
    MutexLock lock(state->mu);
    state->failed = true;
    state->err = Errc::kDeadlineExceeded;
    state->err_msg = "call " + std::to_string(id) +
                     " exceeded its deadline; tokens still in flight are "
                     "dropped as stray on arrival";
    state->done = true;
    continuation = std::move(state->continuation);
    state->continuation = nullptr;
    domain_->notify_all(state->wp);
  }
  // A graph-call vertex's sub-call has no waiter to rethrow into; its
  // continuation owns error delivery (continue_graph_call fails the outer
  // call). Nothing to invoke here with a null token — the outer call
  // carries its own deadline.
  (void)continuation;
}

// --- Fault tolerance (docs/FAULT_TOLERANCE.md) -------------------------------

bool Cluster::node_down(NodeId node) const {
  MutexLock lock(mu_);
  return dead_.count(node) != 0;
}

std::vector<NodeId> Cluster::dead_nodes() const {
  MutexLock lock(mu_);
  return {dead_.begin(), dead_.end()};
}

void Cluster::mark_node_down(NodeId node, const std::string& reason) {
  {
    MutexLock lock(mu_);
    if (down_ || !dead_.insert(node).second) return;
  }
  DPS_WARN("node '" << node_name(node) << "' declared down: " << reason);
  obs::Trace::record(obs::EventKind::kNodeDown, node, node, 0, 0, 0);
  if (reliable_) reliable_->on_node_down(node);
  for (NodeId i = 0; i < controllers_.size(); ++i) {
    if (is_local(i)) controllers_[i]->on_node_down();
  }
  fail_all_calls(Errc::kNodeDown,
                 "node '" + node_name(node) + "' declared down: " + reason);
}

void Cluster::fail_all_calls(Errc code, const std::string& message) {
  std::unordered_map<CallId, std::shared_ptr<detail::CallState>> calls;
  {
    MutexLock lock(mu_);
    calls.swap(calls_);
  }
  for (auto& [id, state] : calls) {
    retire_admission(*state, /*deadline_expired=*/false);
    if (state->continuation) {
      // Sub-call of a graph-call vertex: nothing to deliver — the client
      // graph's own call is in the same table and fails directly.
      continue;
    }
    MutexLock lock(state->mu);
    state->failed = true;
    state->err = code;
    state->err_msg = message;
    state->done = true;
    domain_->notify_all(state->wp);
  }
}

void Cluster::monitor_loop() {
  const FaultToleranceConfig& ft = config_.fault;
  const double threshold = ft.heartbeat_period * ft.heartbeat_miss;
  double next_beacon = 0;  // beacon immediately so last_heard stays fresh
  for (;;) {
    {
      MutexLock lock(monitor_mu_);
      monitor_cv_.wait_for(
          monitor_mu_, std::chrono::duration<double>(ft.tick_interval),
          [&] { return monitor_stop_; });
      if (monitor_stop_) return;
    }
    const double now = mono_seconds();

    std::set<NodeId> live;
    for (NodeId i = 0; i < controllers_.size(); ++i) {
      if (!node_down(i)) live.insert(i);
    }

    for (NodeId i : live) {  // a no-op without reliable delivery
      if (!is_local(i)) continue;
      for (NodeId suspect : reliable_->tick(i, now)) {
        if (!ft.heartbeat) {
          // No heartbeat adjudication: the retry budget is the only
          // failure signal, so act on it directly.
          mark_node_down(suspect, "retransmission budget exhausted");
        }
      }
    }

    if (!ft.heartbeat) continue;
    if (now >= next_beacon) {
      next_beacon = now + ft.heartbeat_period;
      for (NodeId i : live) {
        if (is_local(i)) reliable_->send_heartbeats(i);
      }
    }

    // Failure adjudication. All controllers of a single-process cluster
    // share this monitor, so a killed node's own controller is still
    // running locally and hears nobody — it must not be allowed to vote
    // the healthy majority dead. Rules, in order:
    //   1. a node that cannot hear ANY live peer is isolated — it is dead
    //      to the cluster regardless of its own opinion of others;
    //   2. a peer is declared dead when every non-isolated observer
    //      reports it stale (unanimity among credible witnesses);
    //   3. total blackout (everyone isolated): the leader — the lowest
    //      live node id — survives; split-brain resolves leader-wins.
    if (live.size() <= 1) continue;
    std::map<NodeId, std::set<NodeId>> stale;
    std::set<NodeId> isolated;
    for (NodeId i : live) {
      if (!is_local(i)) continue;
      std::set<NodeId> s;
      for (NodeId p : reliable_->stale_peers(i, now, threshold)) {
        if (live.count(p) != 0) s.insert(p);
      }
      if (s.size() >= live.size() - 1) isolated.insert(i);
      stale.emplace(i, std::move(s));
    }

    std::set<NodeId> to_kill;
    if (!isolated.empty() && isolated.size() == stale.size() &&
        stale.size() == live.size()) {
      const NodeId leader = *live.begin();
      for (NodeId i : live) {
        if (i != leader) to_kill.insert(i);
      }
    } else {
      to_kill = isolated;
      for (NodeId p : live) {
        int votes = 0, witnesses = 0;
        for (const auto& [i, s] : stale) {
          if (isolated.count(i) != 0 || i == p) continue;
          ++witnesses;
          if (s.count(p) != 0) ++votes;
        }
        if (witnesses > 0 && votes == witnesses) to_kill.insert(p);
      }
    }
    for (NodeId p : to_kill) {
      mark_node_down(p, "missed " + std::to_string(ft.heartbeat_miss) +
                            " heartbeats");
    }
  }
}

void Cluster::claim_context(ContextId ctx, const void* claimant) {
  MutexLock lock(mu_);
  auto [it, inserted] = claims_.emplace(ctx, claimant);
  if (!inserted && it->second != claimant) {
    raise(Errc::kState,
          "tokens of one split context were routed to several merge "
          "threads; all tokens of a context must converge on one thread "
          "instance (check the merge's routing function)");
  }
}

void Cluster::release_context(ContextId ctx) {
  MutexLock lock(mu_);
  claims_.erase(ctx);
}

void Cluster::shutdown() {
  {
    MutexLock lock(mu_);
    if (down_) return;
    down_ = true;
  }
  DPS_DEBUG("cluster shutting down");
  // Quiesce deadline timers first: after close() no expiry event can touch
  // the call table or the controllers we are about to stop.
  deadline_gate_->close();
  if (monitor_.joinable()) {
    {
      MutexLock lock(monitor_mu_);
      monitor_stop_ = true;
    }
    monitor_cv_.notify_all();
    monitor_.join();
  }
  for (auto& c : controllers_) c->shutdown();
  // Calls still in the table lost their workers above and can never
  // complete; waiters would block forever (a collective caught mid-flight
  // by shutdown, for instance). Fail them like a node death does.
  fail_all_calls(Errc::kState, "cluster shut down with the call in flight");
  fabric_->shutdown();
  // Join the domain's scheduler thread while the workers it may still be
  // waking (a stall handler's WaitPoint snapshot) are alive; the member
  // destruction order frees controllers_ before domain_.
  domain_->stop();
}

}  // namespace dps
