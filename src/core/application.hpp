// Application: one parallel program running on a cluster.
//
// An application owns its thread collections and flow graphs; several
// applications coexist on one cluster and call each other's published
// graphs (the paper's parallel services, Fig. 5 and Fig. 10). The home
// node is where the application was launched: graph-call results return
// there, like the paper's application instance that initiated the call.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/flowgraph.hpp"
#include "core/thread_collection.hpp"
#include "util/append_table.hpp"

namespace dps {

class Application {
 public:
  Application(Cluster& cluster, std::string name, NodeId home_node = 0);
  ~Application();
  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  Cluster& cluster() { return cluster_; }
  const std::string& name() const { return name_; }
  AppId id() const { return id_; }
  NodeId home() const { return home_; }

  /// This application's mesh tenant (docs/SERVICE_MESH.md). Registered by
  /// name at construction, so an application re-created under the same
  /// name (tenant churn) keeps its identity and configured budgets.
  TenantId tenant() const { return tenant_; }

  /// Replaces this tenant's admission budgets, flow window, and default
  /// deadline; applies to calls made afterwards.
  void set_tenant_config(const TenantConfig& config) {
    cluster_.set_tenant_config(tenant_, config);
  }

  /// Creates (and registers) a named thread collection; map() it before
  /// building graphs that use it.
  template <class T>
  std::shared_ptr<ThreadCollection<T>> thread_collection(std::string name) {
    auto coll = std::make_shared<ThreadCollection<T>>(*this, std::move(name));
    // The cluster co-owns the collection (in-flight envelopes may reference
    // it after this application is gone) and assigns its cluster-wide id.
    coll->id_ = cluster_.register_collection(coll);
    remember_collection(coll);
    return coll;
  }

  /// Validates the builder's graph and returns the runnable flow graph.
  /// Throws Error(kInvalidArgument/kState) on structural problems
  /// (unmapped collections, cycles, unbalanced split/merge nesting,
  /// ambiguous successor types, merge at entry, ...).
  std::shared_ptr<Flowgraph> build_graph(const FlowgraphBuilder& builder,
                                         std::string name);

  /// Publishes a graph as a parallel service other applications can call
  /// by name (ServiceNode or Application::call_service).
  void publish_graph(const std::shared_ptr<Flowgraph>& graph,
                     const std::string& service_name);

  /// Calls a service published by any application on this cluster.
  Ptr<Token> call_service(const std::string& service_name, Ptr<Token> input);
  CallHandle call_service_async(const std::string& service_name,
                                Ptr<Token> input);

  /// Shared ownership: the engine holds the graph alive while envelopes of
  /// a dispatch still reference it, even across this application's exit.
  /// Lock-free; throws kNotFound for unknown ids.
  std::shared_ptr<Flowgraph> graph(GraphId id) const;

 private:
  friend class ThreadCollectionBase;
  void remember_collection(std::shared_ptr<ThreadCollectionBase> coll);

  Cluster& cluster_;
  std::string name_;
  AppId id_;
  NodeId home_;
  TenantId tenant_ = kNoTenant;

  mutable Mutex mu_;
  /// Appended under mu_; graph() reads it lock-free on every dispatch.
  AppendTable<std::shared_ptr<Flowgraph>> graphs_;
  std::vector<std::shared_ptr<ThreadCollectionBase>> collections_
      DPS_GUARDED_BY(mu_);
};

}  // namespace dps
