// Controller: the per-node execution engine.
//
// "At the heart of the DPS library is the Controller object, instantiated
// in each node and responsible for sequencing within each node the program
// execution according to the flow graphs and thread collections
// instantiated by the application." (paper, section 3)
//
// The controller owns this node's engine workers (one OS thread + mailbox
// per DPS thread mapped here), dispatches arriving envelopes to operation
// executions, implements merge/stream context collection, tracks the
// split–merge flow-control accounts anchored on this node, and moves
// envelopes to other nodes through the cluster fabric. Reliable delivery
// and heartbeats are not its job: under fault tolerance the cluster's
// fabric is a ReliableFabric decorator (docs/FAULT_TOLERANCE.md), and the
// controller sends and receives plain engine frames either way.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.hpp"

#include "core/envelope.hpp"
#include "core/flowgraph.hpp"
#include "core/mcast.hpp"
#include "core/operation.hpp"
#include "core/thread.hpp"
#include "net/fabric.hpp"
#include "util/append_table.hpp"

namespace dps {

class Cluster;
class ThreadCollectionBase;

class Controller {
 public:
  Controller(Cluster& cluster, NodeId self);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  NodeId self() const { return self_; }

  /// Spawns the engine worker for thread `index` of `collection` (whose
  /// home is this node): user Thread instance + mailbox + OS thread.
  void spawn_worker(ThreadCollectionBase& collection, ThreadIndex index,
                    const detail::ThreadTypeInfo& type);

  /// Routes an envelope whose destination vertex is set: applies the
  /// vertex's routing function, resolves the target thread's home node, and
  /// delivers locally or through the fabric. Also the entry point used by
  /// Flowgraph::call (from the application's home node).
  void route_and_send(const Flowgraph& graph, Envelope env);

  /// Delivers an already-routed envelope (collection/thread set).
  void send(Envelope env);

  /// Per-message fabric delivery callback: handed to on_fabric_batch as a
  /// chunk of one.
  void on_fabric(NodeMessage&& msg);

  /// Fabric delivery (non-blocking: enqueue + notify only): every frame
  /// decoded from one receive chunk arrives together, so envelopes bound
  /// for the same worker cost one inbox append + one notify for the whole
  /// chunk.
  void on_fabric_batch(std::vector<NodeMessage>&& msgs);

  /// Stops and joins this node's workers. Idempotent.
  void shutdown();

  /// Number of envelopes dispatched on this node (tests/benchmarks).
  uint64_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }

  // --- work stealing (docs/PERFORMANCE.md) ----------------------------------
  /// Always-on stealing counters (ClusterConfig::work_stealing): steal
  /// operations and envelopes moved. Each steal is also a kSteal event
  /// while the flight recorder runs.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  uint64_t stolen_envelopes() const {
    return stolen_envelopes_.load(std::memory_order_relaxed);
  }

  // --- service-mesh admission control (docs/SERVICE_MESH.md) ----------------
  /// Always-on per-tenant admission counters, the one count of admission
  /// outcomes; benches and tests assert on these. The flight recorder adds
  /// kSvcAdmit/kSvcShed/kSvcDeadline events while it runs.
  struct SvcStats {
    uint64_t admitted = 0;          ///< calls that passed admission
    uint64_t shed = 0;              ///< calls refused with kBackpressure
    uint64_t deadline_expired = 0;  ///< calls retired by their deadline
    uint32_t inflight = 0;          ///< currently admitted calls
    uint32_t peak_inflight = 0;     ///< high-water mark of inflight
  };

  /// Admission check for one graph call of `tenant` targeting `target`:
  /// sheds with Error(kBackpressure) — never blocks, never queues — when
  /// the tenant's in-flight budget is exhausted or the target's entry
  /// collection sits above the tenant's queue-depth high-water mark.
  /// On success the tenant holds one in-flight slot until retire_call.
  void admit_call(TenantId tenant, const Flowgraph& target);

  /// Returns one admission slot. Exactly one retire per admitted call —
  /// normal completion, node-down failure and deadline expiry all funnel
  /// through Cluster::retire_admission.
  void retire_call(TenantId tenant, bool deadline_expired);

  SvcStats svc_stats(TenantId tenant) const;

  /// Flow-control window for `tenant`'s split/stream contexts: the
  /// tenant's configured window, or the cluster-wide default.
  uint32_t tenant_window(TenantId tenant) const;

  /// Live flow-control accounts anchored on this node (leak regression
  /// tests: must drain to zero after calls finish or fail).
  size_t flow_account_count() const;

  /// Checkpoint support (core/checkpoint.hpp): appends one record per
  /// Checkpointable worker of this node; restores one worker's state. The
  /// schedule must be quiescent.
  void checkpoint_workers(Writer& w);
  void restore_worker(CollectionId collection, ThreadIndex index, Reader& r);

  // --- fault tolerance (docs/FAULT_TOLERANCE.md) ----------------------------
  /// A peer was declared dead: poison local flow accounts so no worker
  /// blocks on a window that can never refill. Poisoned accounts are
  /// reaped even with credits outstanding — the acks that would return
  /// them died with the peer (the window-leak hazard; regression-tested in
  /// tests/service_mesh_test.cpp).
  void on_node_down();

  /// This node's counts in the cluster's ReliableFabric: frames received
  /// twice and dropped, and frames re-sent on a retransmission timeout.
  /// Both read 0 without reliable delivery (tests).
  uint64_t duplicates_suppressed() const;
  uint64_t retransmissions() const;

  // --- multicast collectives (docs/PERFORMANCE.md) --------------------------
  /// Envelope bodies encoded for multicast on this node. The one-encode-
  /// K-transmit invariant is `multicast_encodes() == collectives with >= 1
  /// remote destination` while `multicast_frames_sent()` counts the actual
  /// kMcastEnvelope transmits — always-on so tests can assert it
  /// (tests/core_engine_test.cpp).
  uint64_t multicast_encodes() const {
    return mcast_encodes_.load(std::memory_order_relaxed);
  }
  /// kMcastEnvelope frames shipped from this node.
  uint64_t multicast_frames_sent() const {
    return mcast_frames_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;
  struct StealGroup;
  struct FlowAccount;
  class ExecCtx;
  class DeliveryBatch;

  // Engine internals.
  void worker_loop(Worker& w);
  /// Swaps the worker's inbox out under its lock and indexes every drained
  /// envelope into the worker-private run queue. Returns false when the
  /// inbox was empty. Must run on the worker's own thread.
  bool drain_inbox(Worker& w);
  /// Steals the oldest dispatchable context run from the deepest sibling
  /// worker of `w`'s collection into `w`'s run queue. Returns true when
  /// anything was stolen. Called by idle workers only.
  bool try_steal(Worker& w);
  /// Wakes one sibling (round-robin) with a steal hint when `w` has a
  /// backlog of dispatchable work. Called after a successful drain.
  void hint_siblings(Worker& w);
  void dispatch(Worker& w, Envelope env);
  void dispatch_graph_call(Worker& w, Envelope env);
  void continue_graph_call(AppId app, GraphId graph, VertexId vertex,
                           std::vector<SplitFrame> frames, CallId call,
                           NodeId reply_node, TenantId tenant,
                           Ptr<Token> result);
  void deliver_local(Envelope env);
  void send_reply(Envelope env);
  /// Lock-free; throws kNotFound when the thread does not live here.
  Worker& worker(CollectionId collection, ThreadIndex index);
  /// Visits this node's workers in (collection, index) order.
  template <class F>
  void for_each_worker(F&& f) DPS_REQUIRES(workers_mu_);
  bool starts_collection(const Envelope& env) const;

  // Flow control (accounts anchored at this node for splits running here).
  ContextId new_context_id();
  /// The new account stays put until its split finishes it, so the split
  /// keeps the pointer and acquires without looking the account up.
  FlowAccount* create_flow_account(ContextId ctx, uint32_t window);
  /// Blocks until a window slot of `acc` is free. `min_window` floors the
  /// effective window: a collective passes one more than the credits its
  /// execution already holds, so it can never park its own worker waiting
  /// for releases that only a merge colocated on that worker could produce.
  void flow_acquire(FlowAccount& acc, uint32_t min_window = 0);
  /// Split done; erase when drained — or immediately when poisoned, since
  /// a poisoned account's outstanding credits can never return.
  void finish_flow_account(ContextId ctx);
  void apply_flow_release(ContextId ctx, uint32_t n);
  /// Unblocks every flow waiter (node death / shutdown) and reaps the
  /// accounts whose splits already finished.
  void poison_flow_accounts();
  /// Returns `n` consumed-token credits to the split's flow account —
  /// locally, or as one batched kFlowAck frame (ExecCtx coalesces).
  void send_flow_ack(const SplitFrame& frame, uint32_t n);

  /// Hands one engine frame to the cluster fabric and records its
  /// kFabricSend event (mcast_ship is the shared-body twin).
  void fabric_send(NodeId target, FrameKind kind,
                   std::vector<std::byte> payload);
  /// Ships one kMcastEnvelope frame carrying `n` destinations on node `to`
  /// and the shared `body` (the fabric's send_shared: one encode, K
  /// transmits).
  void mcast_ship(NodeId to, const McastEntry* entries, size_t n,
                  const SharedPayload& body);
  /// kMcastEnvelope arrival: decode the body once and deliver every entry
  /// (token pointer shared between co-located receivers).
  void handle_mcast(const std::byte* data, size_t size, DeliveryBatch& batch);
  /// Encodes `env` into one exact-size pooled buffer and ships it.
  void send_envelope(NodeId target, FrameKind kind, const Envelope& env);
  /// Envelopes are collected into `batch` for one grouped inbox append per
  /// worker.
  void handle_frame(FrameKind kind, NodeId from,
                    const std::byte* data, size_t size, DeliveryBatch& batch);

  Cluster& cluster_;
  NodeId self_;

  mutable Mutex workers_mu_;
  /// This node's workers: one row per collection id (null while the
  /// collection has no thread here), one slot per thread index.
  /// spawn_worker fills a slot under workers_mu_ before any envelope can
  /// name the worker; worker() reads the table lock-free.
  struct WorkerRow;
  AppendTable<std::atomic<WorkerRow*>> rows_;
  std::vector<std::unique_ptr<WorkerRow>> row_store_
      DPS_GUARDED_BY(workers_mu_);
  /// Steal domains, one per collection with workers on this node. Only
  /// populated when ClusterConfig::work_stealing is on; groups are stable
  /// heap objects so workers keep a raw pointer to their own.
  std::map<CollectionId, std::unique_ptr<StealGroup>> steal_groups_
      DPS_GUARDED_BY(workers_mu_);
  bool down_ DPS_GUARDED_BY(workers_mu_) = false;
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> stolen_envelopes_{0};

  mutable Mutex flow_mu_;
  std::unordered_map<ContextId, std::unique_ptr<FlowAccount>> accounts_
      DPS_GUARDED_BY(flow_mu_);
  /// Set by shutdown() before it poisons the account table: a split that
  /// slips in after the poison pass (its worker was mid-dispatch when the
  /// poison flag was raised) gets an account that is born poisoned, so it
  /// unwinds at its first flow_acquire instead of leaking the account.
  bool flow_down_ DPS_GUARDED_BY(flow_mu_) = false;
  std::atomic<uint64_t> context_counter_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> mcast_encodes_{0};
  std::atomic<uint64_t> mcast_frames_{0};

  // Service-mesh admission state: one record per tenant that ever called
  // through this node (its home). svc_mu_ is a leaf lock — taken with no
  // other controller lock held and never held across a send or a wait.
  mutable Mutex svc_mu_;
  std::unordered_map<TenantId, SvcStats> svc_ DPS_GUARDED_BY(svc_mu_);
};

}  // namespace dps
