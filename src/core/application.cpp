#include "core/application.hpp"

#include <cstdio>

#include "core/controller.hpp"
#include "util/logging.hpp"

namespace dps {

Application::Application(Cluster& cluster, std::string name, NodeId home_node)
    : cluster_(cluster), name_(std::move(name)), home_(home_node) {
  DPS_CHECK(home_ < cluster_.node_count(), "home node out of range");
  id_ = cluster_.register_app(this);
  tenant_ = cluster_.register_tenant(name_);
}

Application::~Application() { cluster_.unregister_app(id_); }

void Application::remember_collection(
    std::shared_ptr<ThreadCollectionBase> coll) {
  MutexLock lock(mu_);
  collections_.push_back(std::move(coll));
}

std::shared_ptr<Flowgraph> Application::build_graph(
    const FlowgraphBuilder& builder, std::string name) {
  MutexLock lock(mu_);
  const GraphId id = static_cast<GraphId>(graphs_.size());
  // Flowgraph's constructor is private; std::make_shared cannot reach it.
  std::shared_ptr<Flowgraph> graph(
      new Flowgraph(*this, id, std::move(name), builder));
  graphs_.push_back(graph);
  return graph;
}

std::shared_ptr<Flowgraph> Application::graph(GraphId id) const {
  const std::shared_ptr<Flowgraph>* slot = graphs_.find(id);
  if (slot == nullptr) {
    raise(Errc::kNotFound, "application '" + name_ + "' has no graph " +
                               std::to_string(id));
  }
  return *slot;
}

void Application::publish_graph(const std::shared_ptr<Flowgraph>& graph,
                                const std::string& service_name) {
  DPS_CHECK(graph != nullptr, "publish_graph(nullptr)");
  char value[32];
  std::snprintf(value, sizeof(value), "%u %u", id_, graph->id());
  cluster_.services().publish(service_name, value);
  DPS_INFO("application '" << name_ << "' published graph '" << graph->name()
                           << "' as service '" << service_name << "'");
}

CallHandle Application::call_service_async(const std::string& service_name,
                                           Ptr<Token> input) {
  const std::string value = cluster_.services().wait_for(service_name);
  AppId app_id = 0;
  GraphId graph_id = 0;
  if (std::sscanf(value.c_str(), "%u %u", &app_id, &graph_id) != 2) {
    raise(Errc::kProtocol,
          "malformed service record for '" + service_name + "'");
  }
  Application* target_app = cluster_.app(app_id);
  std::shared_ptr<Flowgraph> target = target_app->graph(graph_id);
  // The reply must come back to *this* application's home node, not the
  // service owner's: route the call ourselves instead of delegating to
  // target->call_async (which would use the owner's home).
  const Flowgraph::Vertex& entry = target->vertex(target->entry());
  const uint64_t tid = input->typeInfo().id;
  bool ok = false;
  for (uint64_t t : entry.input_type_ids) ok = ok || (t == tid);
  if (!ok) {
    raise(Errc::kTypeMismatch,
          "service '" + service_name + "' does not accept token type '" +
              input->typeInfo().name + "'");
  }
  // Admission control (docs/SERVICE_MESH.md): charged to *this*
  // application's tenant at the mesh boundary, before the token enters the
  // target graph. Sheds synchronously with Error(kBackpressure).
  cluster_.controller(home_).admit_call(tenant_, *target);

  const CallId id = cluster_.new_call_id();
  auto state = cluster_.create_call(id);
  cluster_.bind_admission(*state, tenant_, home_);
  Envelope env;
  env.app = app_id;
  env.graph = graph_id;
  env.vertex = target->entry();
  env.call = id;
  env.call_reply_node = home_;
  env.tenant = tenant_;
  env.token = std::move(input);
  cluster_.controller(home_).route_and_send(*target, std::move(env));

  CallHandle handle(id, std::move(state), &cluster_);
  const double deadline = cluster_.tenant_config(tenant_).default_deadline_ms;
  if (deadline > 0) handle.with_deadline(deadline);
  return handle;
}

Ptr<Token> Application::call_service(const std::string& service_name,
                                     Ptr<Token> input) {
  return call_service_async(service_name, std::move(input)).wait();
}

}  // namespace dps
