#include "interconnect/crossbar.hh"

#include <utility>

#include "checkpoint/checkpoint.hh"
#include "sim/logging.hh"

namespace dsp {

/**
 * The two hot event types of the interconnect: both live in pooled
 * slots and carry only a handle to the shared payload, so a
 * fully-loaded network schedules hops without touching the heap and
 * a multicast fan-out never copies the Message.
 */
struct OrderedCrossbar::OrderEvent final : Event {
    OrderEvent(OrderedCrossbar &x, MessageRef &&m, unsigned h, Tick t,
               bool serialized)
        : xbar(x), msg(std::move(m)), hub(h), tick(t),
          serialized(serialized)
    {
    }

    void
    process() override
    {
        if (serialized) {
            // Already holds its ordering slot; run the order handler
            // and fan out at the slot tick.
            xbar.orderAndFanOut(msg, tick);
            return;
        }
        // Arrival at the ordering point: claim the next slot. The
        // spacing state (lastOrder) belongs to this hub's domain, so
        // it is applied here -- at arrival, in deterministic arrival
        // order -- not at send time in some other domain.
        HubState &point = xbar.hubs_[hub];
        Tick slot = std::max(tick, point.lastOrder + xbar.orderGap_);
        point.lastOrder = slot;
        if (slot > tick) {
            point.port.schedule(
                *EventPool<OrderEvent>::instance().acquire(
                    xbar, std::move(msg), hub, slot, true),
                slot, EventPriority::NetworkOrder);
            return;
        }
        xbar.orderAndFanOut(msg, tick);
    }

    void
    release() override
    {
        EventPool<OrderEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarOrder));
        w.pod(*msg);
        w.u32(hub);
        w.u64(tick);
        w.b(serialized);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    unsigned hub;
    Tick tick;
    bool serialized;
};

struct OrderedCrossbar::DeliverEvent final : Event {
    DeliverEvent(OrderedCrossbar &x, const MessageRef &m, NodeId d,
                 Tick w, bool booked)
        : xbar(x), msg(m), dest(d), when(w), booked(booked)
    {
    }

    void
    process() override
    {
        if (!booked) {
            xbar.arriveAtDest(msg, dest, when);
            return;
        }
        if (xbar.onDeliver_)
            xbar.onDeliver_(*msg, dest, when);
    }

    void
    release() override
    {
        EventPool<DeliverEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::XbarDeliver));
        w.pod(*msg);
        w.u32(dest);
        w.u64(when);
        w.b(booked);
    }

    OrderedCrossbar &xbar;
    MessageRef msg;
    NodeId dest;
    Tick when;
    bool booked;
};

OrderedCrossbar::OrderedCrossbar(std::vector<DomainPort> hub_ports,
                                 std::vector<DomainPort> node_ports,
                                 const CrossbarParams &params)
    : params_(params),
      topo_(static_cast<NodeId>(node_ports.size()), params.topology,
            params.traversal_ns),
      orderGap_(nsToTicks(params.ordering_gap_ns))
{
    dsp_assert(!node_ports.empty() && node_ports.size() <= maxNodes,
               "bad crossbar size %zu", node_ports.size());
    dsp_assert(hub_ports.size() == topo_.hubs(),
               "expected %u hub ports, got %zu", topo_.hubs(),
               hub_ports.size());
    for (std::size_t k = 0; k < numKinds; ++k) {
        occupancyByKind_[k] =
            occupancy(messageBytes(static_cast<MessageKind>(k)));
    }
    hubs_.resize(hub_ports.size());
    for (std::size_t h = 0; h < hub_ports.size(); ++h)
        hubs_[h].port = hub_ports[h];
    nodes_.resize(node_ports.size());
    for (std::size_t n = 0; n < node_ports.size(); ++n)
        nodes_[n].port = node_ports[n];
}

namespace {

std::vector<DomainPort>
standalonePorts(EventQueue &queue, std::size_t count)
{
    return std::vector<DomainPort>(count, DomainPort(queue));
}

} // namespace

OrderedCrossbar::OrderedCrossbar(EventQueue &queue, NodeId num_nodes,
                                 const CrossbarParams &params)
    : OrderedCrossbar(standalonePorts(queue, params.topology.hubs),
                      standalonePorts(queue, num_nodes), params)
{
}

void
OrderedCrossbar::setOrderHandler(OrderHandler handler)
{
    onOrder_ = std::move(handler);
}

void
OrderedCrossbar::setDeliverHandler(DeliverHandler handler)
{
    onDeliver_ = std::move(handler);
}

void
OrderedCrossbar::scheduleDelivery(const MessageRef &msg, NodeId dest,
                                  Tick when, bool booked)
{
    nodes_[dest].port.schedule(
        *EventPool<DeliverEvent>::instance().acquire(*this, msg, dest,
                                                     when, booked),
        when, EventPriority::Delivery);
}

void
OrderedCrossbar::arriveAtDest(const MessageRef &msg, NodeId dest,
                              Tick now)
{
    NodeState &node = nodes_[dest];
    node.traffic[static_cast<std::size_t>(msg->kind)].add(
        msg->bytes());

    // Cut-through: the head is delivered when the link becomes free;
    // the occupancy only delays *later* messages on the same link.
    Tick start = std::max(now, node.ingressFree);
    node.ingressFree = start + occupancyOf(msg->kind);
    if (start > now) {
        scheduleDelivery(msg, dest, start, true);
        return;
    }
    if (onDeliver_)
        onDeliver_(*msg, dest, now);
}

void
OrderedCrossbar::orderAndFanOut(const MessageRef &msg, Tick order)
{
    if (onOrder_)
        onOrder_(msg, order);
    // Fan out to every destination but the source; each delivery
    // shares the one pooled payload and contends for its
    // destination's ingress link on arrival. The hub sits on the
    // global tier, so the downward leg is uniform over destinations.
    Tick deliver = order + topo_.hubHop();
    msg->dests.forEach([&](NodeId dest) {
        if (dest == msg->src)
            return;
        scheduleDelivery(msg, dest, deliver, false);
    });
}

void
OrderedCrossbar::sendOrdered(Message msg)
{
    dsp_assert(isOrdered(msg.kind), "sendOrdered with unordered kind");
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    unsigned hub = topo_.hubOf(msg.block());
    Tick arrive = depart + topo_.hubHop();
    hubs_[hub].port.schedule(
        *EventPool<OrderEvent>::instance().acquire(
            *this, MessageRef(std::move(msg)), hub, arrive, false),
        arrive, EventPriority::NetworkOrder);
}

void
OrderedCrossbar::sendDirect(Message msg)
{
    dsp_assert(!isOrdered(msg.kind), "sendDirect with ordered kind");
    dsp_assert(msg.dest < numNodes(), "bad destination %u", msg.dest);
    NodeState &src = nodes_[msg.src];
    Tick depart = std::max(src.port.now(), src.egressFree);
    src.egressFree = depart + occupancyOf(msg.kind);

    NodeId dest = msg.dest;
    Tick arrive = depart + topo_.directHop(msg.src, dest);
    scheduleDelivery(MessageRef(std::move(msg)), dest, arrive, false);
}

TrafficStats
OrderedCrossbar::traffic(MessageKind kind) const
{
    TrafficStats total;
    for (const NodeState &node : nodes_) {
        const TrafficStats &s =
            node.traffic[static_cast<std::size_t>(kind)];
        total.messages += s.messages;
        total.bytes += s.bytes;
    }
    return total;
}

std::uint64_t
OrderedCrossbar::totalBytes() const
{
    std::uint64_t total = 0;
    for (const NodeState &node : nodes_) {
        for (const TrafficStats &s : node.traffic)
            total += s.bytes;
    }
    return total;
}

void
OrderedCrossbar::resetStats()
{
    for (NodeState &node : nodes_)
        node.traffic.fill(TrafficStats{});
}

void
OrderedCrossbar::ckptSave(ckpt::Writer &w) const
{
    w.section(0x58424152u);  // "XBAR"
    w.u64(hubs_.size());
    for (const HubState &hub : hubs_)
        w.u64(hub.lastOrder);
    w.u64(nodes_.size());
    for (const NodeState &node : nodes_) {
        w.u64(node.ingressFree);
        w.u64(node.egressFree);
        for (const TrafficStats &t : node.traffic) {
            w.u64(t.messages);
            w.u64(t.bytes);
        }
    }
}

void
OrderedCrossbar::ckptLoad(ckpt::Reader &r)
{
    r.section(0x58424152u);
    dsp_assert(r.u64() == hubs_.size(),
               "checkpoint crossbar hub count mismatch");
    for (HubState &hub : hubs_)
        hub.lastOrder = r.u64();
    dsp_assert(r.u64() == nodes_.size(),
               "checkpoint crossbar node count mismatch");
    for (NodeState &node : nodes_) {
        node.ingressFree = r.u64();
        node.egressFree = r.u64();
        for (TrafficStats &t : node.traffic) {
            t.messages = r.u64();
            t.bytes = r.u64();
        }
    }
}

Event &
OrderedCrossbar::ckptRestoreOrder(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    unsigned hub = r.u32();
    Tick tick = r.u64();
    bool serialized = r.b();
    return *EventPool<OrderEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), hub, tick, serialized);
}

Event &
OrderedCrossbar::ckptRestoreDeliver(ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    NodeId dest = r.u32();
    Tick when = r.u64();
    bool booked = r.b();
    return *EventPool<DeliverEvent>::instance().acquire(
        *this, MessageRef(std::move(m)), dest, when, booked);
}

} // namespace dsp
