/**
 * @file
 * Totally-ordered interconnect (Section 5.2: "we model a single
 * crossbar switch ... includes contention effects caused by limited
 * link bandwidth"), generalized to the two-level hierarchy and the
 * address-interleaved ordering points of docs/machine_topology.md.
 *
 * Ordered multicasts (requests, retries) pass through a serialization
 * point that defines the per-block total order all three protocols
 * require; with H ordering hubs, block b serializes at hub b mod H
 * and the total order is per-hub (blocks never span hubs, so this is
 * exactly the order the protocols need). Deliveries then traverse
 * per-node ingress links. Point-to-point messages (data, forwards,
 * invalidations) bypass the ordering points but share the same
 * endpoint links; their latency depends on whether source and
 * destination share a cluster (see interconnect/topology.hh).
 *
 * Sharding discipline: every piece of crossbar state is owned by
 * exactly one kernel domain and touched only while that domain
 * executes. A node's egress link is booked at send time (the sender's
 * domain); each ordering point's spacing (lastOrder) is applied when
 * the message *arrives* at that hub (the hub's own domain); a node's
 * ingress link is booked when the delivery *arrives* at that node (the
 * destination's domain). Traffic statistics are likewise accumulated
 * per destination node. This keeps the crossbar data-race free under
 * the sharded kernel without a single lock on the hot path.
 *
 * Uncontended flat-machine latencies are calibrated to Table 4: one
 * traversal is 50 ns (ordering 25 ns + delivery 25 ns for ordered
 * messages).
 */

#ifndef DSP_INTERCONNECT_CROSSBAR_HH
#define DSP_INTERCONNECT_CROSSBAR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "interconnect/message.hh"
#include "interconnect/topology.hh"
#include "sim/sharded_kernel.hh"
#include "sim/types.hh"

namespace dsp {

/** Crossbar timing/bandwidth parameters. */
struct CrossbarParams {
    double traversal_ns = 50.0;      ///< uncontended one-way latency
    double link_bytes_per_ns = 10.0; ///< 10 GB/s endpoint links
    double ordering_gap_ns = 0.5;    ///< min spacing at an order point
    /** Cluster geometry, per-level legs, and the ordering-hub count;
     *  defaults to the flat single-hub crossbar. */
    TopologyParams topology;
};

/** Per-kind traffic statistics. */
struct TrafficStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;

    void
    add(std::uint64_t b)
    {
        ++messages;
        bytes += b;
    }
};

/**
 * The interconnect. The owner (System) installs two callbacks:
 * onOrder fires once per ordered message at its serialization tick
 * (where the functional coherence transaction is applied), and
 * onDeliver fires per (message, destination) at its delivery tick.
 *
 * The order handler receives the shared payload handle so the owner
 * can stamp the transaction echo into it (it is still exclusive at
 * that point) and enqueue further zero-copy deliveries (e.g.
 * self-observation of an ordered request) against the same pooled
 * payload.
 */
class OrderedCrossbar
{
  public:
    using OrderHandler = std::function<void(const MessageRef &, Tick)>;
    using DeliverHandler =
        std::function<void(const Message &, NodeId, Tick)>;

    /**
     * Sharded-kernel form: `hub_ports` are the ordering points'
     * domains (one per hub, size == params.topology.hubs),
     * `node_ports` the per-node domains deliveries execute in.
     */
    OrderedCrossbar(std::vector<DomainPort> hub_ports,
                    std::vector<DomainPort> node_ports,
                    const CrossbarParams &params = CrossbarParams{});

    /** Standalone form: everything on one queue (unit tests, tools). */
    OrderedCrossbar(EventQueue &queue, NodeId num_nodes,
                    const CrossbarParams &params = CrossbarParams{});

    void setOrderHandler(OrderHandler handler);
    void setDeliverHandler(DeliverHandler handler);

    /**
     * Send an ordered multicast (Request/Retry). The message moves
     * into one pooled payload, is serialized at its block's ordering
     * point, the order handler runs, then every member of msg.dests
     * except the source receives a delivery that shares that payload
     * (self-delivery is free and instantaneous at the order tick --
     * modelled by the order handler itself). Must be called from the
     * source node's domain.
     */
    void sendOrdered(Message msg);

    /** Send a point-to-point message (everything else); must be
     *  called from the source node's domain. */
    void sendDirect(Message msg);

    /** Statistics by message kind, summed over destination nodes.
     *  Counted when the delivery reaches the destination's ingress
     *  link; only meaningful while the kernel is quiescent. */
    TrafficStats traffic(MessageKind kind) const;

    /** Total bytes across all kinds. */
    std::uint64_t totalBytes() const;

    /** Zero all statistics (end of warmup). */
    void resetStats();

    NodeId numNodes() const
    {
        return static_cast<NodeId>(nodes_.size());
    }

    const Topology &topology() const { return topo_; }

    /**
     * Checkpoint link/ordering-point state + traffic counters.
     * In-flight Order/Deliver events are captured separately by the
     * kernel's pending-event enumeration (each serializes itself and
     * is rebuilt via ckptRestoreOrder/ckptRestoreDeliver).
     */
    void ckptSave(ckpt::Writer &w) const;
    void ckptLoad(ckpt::Reader &r);

    /** Reconstruct one in-flight crossbar event from its saved
     *  payload (the tag byte has already been consumed). Restored
     *  payloads are independent pooled copies -- sharing between the
     *  original fan-out's deliveries is a memory optimization, not
     *  semantics. */
    Event &ckptRestoreOrder(ckpt::Reader &r);
    Event &ckptRestoreDeliver(ckpt::Reader &r);

  private:
    /** Pooled event: one message reaching (or, once serialized,
     *  leaving) its ordering point. */
    struct OrderEvent;

    /** Pooled event: one (payload handle, destination) delivery --
     *  first firing books the ingress link, a contended delivery
     *  refires at the link-free tick. */
    struct DeliverEvent;

    static constexpr std::size_t numKinds = 7;

    /** All state owned by one node's domain, padded so adjacent
     *  nodes on different shards do not false-share. */
    struct alignas(64) NodeState {
        DomainPort port;
        Tick ingressFree = 0;  ///< booked by the destination domain
        Tick egressFree = 0;   ///< booked by the source domain
        std::array<TrafficStats, numKinds> traffic{};
    };

    /** One ordering point: its kernel domain and its spacing state,
     *  touched only while that hub's domain executes. */
    struct alignas(64) HubState {
        DomainPort port;
        Tick lastOrder = 0;
    };

    Tick
    occupancy(std::uint32_t bytes) const
    {
        return nsToTicks(static_cast<double>(bytes) /
                         params_.link_bytes_per_ns);
    }

    /** Message sizes are per-kind constants, so the link-occupancy
     *  division runs once per kind at construction, not once per
     *  send and arrival (a double divide on every hop). */
    Tick
    occupancyOf(MessageKind kind) const
    {
        return occupancyByKind_[static_cast<std::size_t>(kind)];
    }

    /** Serialize `msg` at its hub, then fan deliveries out to its
     *  destinations; all of them share the one pooled payload. */
    void orderAndFanOut(const MessageRef &msg, Tick order);

    /** First arrival of a delivery at `dest`: count it, book the
     *  ingress link, and either fire the handler or refire at the
     *  contended tick. */
    void arriveAtDest(const MessageRef &msg, NodeId dest, Tick now);

    void scheduleDelivery(const MessageRef &msg, NodeId dest,
                          Tick when, bool booked);

    CrossbarParams params_;
    Topology topo_;
    Tick orderGap_;
    std::array<Tick, numKinds> occupancyByKind_{};

    OrderHandler onOrder_;
    DeliverHandler onDeliver_;

    std::vector<HubState> hubs_;
    std::vector<NodeState> nodes_;
};

} // namespace dsp

#endif // DSP_INTERCONNECT_CROSSBAR_HH
