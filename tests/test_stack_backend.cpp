// StackBackend seam tests: the shared link layer once per backend, the
// fast-path backend end-to-end, capability gating, backend lifecycle
// (attach/detach mid-run), the stack-as-a-service mode (guests-per-worker=1
// equivalence, attribution, teardown with packets in flight) and the SBO
// callback migration of TcpSocket.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>

#include "net/bridge.hpp"
#include "net/faststack.hpp"
#include "net/packet_pool.hpp"
#include "net/stack.hpp"
#include "net/stack_backend.hpp"
#include "net/stack_service.hpp"
#include "sim/engine.hpp"

namespace nestv::net {
namespace {

const sim::CostModel kCosts{};
const Ipv4Cidr kSubnet(Ipv4Address(10, 0, 0, 0), 24);

/// Two stacks of one backend type on one bridge: 10.0.0.1 (alice) and
/// 10.0.0.2 (bob).
template <typename Stack>
struct TwoStacksOf : ::testing::Test {
  sim::Engine engine;
  Bridge bridge{engine, "br", kCosts};
  PortBackend port_a{engine, "pa", kCosts};
  PortBackend port_b{engine, "pb", kCosts};
  Stack alice{engine, "alice", kCosts, nullptr};
  Stack bob{engine, "bob", kCosts, nullptr};
  Ipv4Address ip_a{10, 0, 0, 1};
  Ipv4Address ip_b{10, 0, 0, 2};

  void SetUp() override {
    Device::connect(port_a, 0, bridge, bridge.add_port());
    Device::connect(port_b, 0, bridge, bridge.add_port());
    alice.add_interface(port_a, {"eth0", MacAddress::local_from_id(1), ip_a,
                                 kSubnet, 1500, 1448});
    bob.add_interface(port_b, {"eth0", MacAddress::local_from_id(2), ip_b,
                               kSubnet, 1500, 1448});
  }
};

// ---- link layer, once per backend ------------------------------------------
//
// The interface table, ARP and the L2 receive head are StackBackend's
// shared code; these cases pin that every backend runs them the same way.

template <typename Stack>
struct LinkLayer : TwoStacksOf<Stack> {};

using Backends = ::testing::Types<FullStack, FastPathStack>;
TYPED_TEST_SUITE(LinkLayer, Backends);

TYPED_TEST(LinkLayer, ArpResolvesOnDemand) {
  int got = 0;
  this->bob.udp_bind(7, nullptr,
                     [&](const StackBackend::UdpDelivery&) { ++got; });
  this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  this->engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(this->alice.arp_requests_sent(), 1u);

  // Second send: neighbour cached, no new ARP.
  this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  this->engine.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(this->alice.arp_requests_sent(), 1u);
}

TYPED_TEST(LinkLayer, PacketsParkedDuringArpAreFlushed) {
  int got = 0;
  this->bob.udp_bind(7, nullptr,
                     [&](const StackBackend::UdpDelivery&) { ++got; });
  for (int i = 0; i < 5; ++i) {
    this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  }
  this->engine.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(this->alice.arp_requests_sent(), 1u);  // one for the burst
}

TYPED_TEST(LinkLayer, SeededNeighborSkipsArp) {
  this->alice.seed_neighbor(this->alice.ifindex_of("eth0"), this->ip_b,
                            MacAddress::local_from_id(2));
  int got = 0;
  this->bob.udp_bind(7, nullptr,
                     [&](const StackBackend::UdpDelivery&) { ++got; });
  this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  this->engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(this->alice.arp_requests_sent(), 0u);
}

TYPED_TEST(LinkLayer, UdpRoundTripWithArp) {
  auto& bob = this->bob;
  int got = 0;
  bob.udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery& d) {
    ++got;
    bob.udp_send(this->ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  int replies = 0;
  this->alice.udp_bind(8, nullptr,
                       [&](const StackBackend::UdpDelivery&) { ++replies; });
  this->alice.udp_send(this->ip_a, 8, this->ip_b, 7, 64, nullptr);
  this->engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(replies, 1);
  // One resolution from alice; bob learned her MAC from the request
  // itself and replied without resolving.
  EXPECT_EQ(this->alice.arp_requests_sent(), 1u);
  EXPECT_EQ(bob.arp_requests_sent(), 0u);
}

TYPED_TEST(LinkLayer, DetachInterfaceMidRunDropsInFlight) {
  int got = 0;
  this->bob.udp_bind(7, nullptr,
                     [&](const StackBackend::UdpDelivery&) { ++got; });
  // First exchange resolves ARP and proves the path works.
  this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  this->engine.run();
  ASSERT_EQ(got, 1);
  // Queue more traffic, then unplug alice's NIC before the engine runs:
  // parked/queued packets dead-end without crashing or leaking.
  for (int i = 0; i < 4; ++i) {
    this->alice.udp_send(this->ip_a, 1000, this->ip_b, 7, 64, nullptr);
  }
  this->alice.detach_interface(this->alice.ifindex_of("eth0"));
  this->engine.run();
  EXPECT_EQ(got, 1);  // nothing further arrived
}

TYPED_TEST(LinkLayer, ArpRequestAcrossUnplugGetsNoReply) {
  // A request for alice's address is still queued in her softirq when her
  // NIC is hot-unplugged: the reply has no netdev left to leave on.
  EthernetFrame req;
  req.src = MacAddress::local_from_id(2);
  req.dst = MacAddress::broadcast();
  req.ethertype = 0x0806;
  req.arp_is_request = true;
  req.arp_sender_ip = this->ip_b;
  req.arp_sender_mac = MacAddress::local_from_id(2);
  req.arp_target_ip = this->ip_a;
  const int eth0 = this->alice.ifindex_of("eth0");
  this->alice.rx(eth0, std::move(req));
  this->alice.detach_interface(eth0);
  this->engine.run();
  EXPECT_EQ(this->bridge.fdb().size(), 0u);  // nothing reached the wire
}

// ---- fast-path backend -----------------------------------------------------

using FastPathTwoStacks = TwoStacksOf<FastPathStack>;

TEST_F(FastPathTwoStacks, TcpStreamTransfersExactBytes) {
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(10 * 1448); });
  engine.run();
  EXPECT_EQ(received, 10u * 1448u);
  EXPECT_EQ(client.retransmits(), 0u);
}

TEST_F(FastPathTwoStacks, LoopbackDelivery) {
  int got = 0;
  alice.udp_bind(7, nullptr,
                 [&](const StackBackend::UdpDelivery&) { ++got; });
  alice.udp_send(Ipv4Address(127, 0, 0, 1), 99, Ipv4Address(127, 0, 0, 1), 7,
                 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
}

TEST_F(FastPathTwoStacks, OversizedDatagramDroppedNotFragmented) {
  int got = 0;
  bob.udp_bind(7, nullptr,
               [&](const StackBackend::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 1000, ip_b, 7, 5000, nullptr);  // > mtu payload
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_GT(alice.packets_dropped(), 0u);
}

TEST_F(FastPathTwoStacks, UnsupportedCapabilitiesThrow) {
  EXPECT_EQ(alice.kind(), StackKind::kFastPath);
  EXPECT_FALSE(alice.has_netfilter());
  EXPECT_FALSE(alice.has_flowcache());
  EXPECT_THROW((void)alice.netfilter(), std::logic_error);
  EXPECT_THROW((void)alice.flow_cache(), std::logic_error);
  EXPECT_THROW(alice.set_forwarding(true), std::logic_error);
  EXPECT_THROW(alice.set_forced_resegment(1000), std::logic_error);
  EXPECT_THROW(alice.ping(ip_b, 64, [](sim::Duration) {}),
               std::logic_error);
  // Optional tuning knobs are accepted as no-ops (CNIs call these).
  EXPECT_NO_THROW(alice.set_gro(false));
  EXPECT_NO_THROW(alice.set_flowcache(true));
  EXPECT_FALSE(alice.flowcache_enabled());
  EXPECT_EQ(alice.conntrack_gc(0), 0u);
}

TEST_F(FastPathTwoStacks, AttachInterfaceMidRun) {
  // A third stack hot-plugs onto the bridge after traffic has flowed.
  engine.run();
  PortBackend port_c(engine, "pc", kCosts);
  FastPathStack carol(engine, "carol", kCosts, nullptr);
  Device::connect(port_c, 0, bridge, bridge.add_port());
  carol.add_interface(port_c, {"eth0", MacAddress::local_from_id(3),
                               Ipv4Address(10, 0, 0, 3), kSubnet, 1500,
                               1448});
  int got = 0;
  carol.udp_bind(9, nullptr,
                 [&](const StackBackend::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 1000, Ipv4Address(10, 0, 0, 3), 9, 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
}

// ---- factory ---------------------------------------------------------------

TEST(MakeStack, FactoryDispatchesOnMode) {
  sim::Engine engine;
  const auto full = make_stack(StackMode::kFull, engine, "f", kCosts, nullptr);
  const auto fast =
      make_stack(StackMode::kFastPath, engine, "p", kCosts, nullptr);
  EXPECT_EQ(full->kind(), StackKind::kFullStack);
  EXPECT_EQ(fast->kind(), StackKind::kFastPath);
}

// ---- backend semantic equivalence ------------------------------------------

/// Runs one bounded UDP RR wave (count transactions) between two stacks of
/// `mode` and returns the transaction total — the semantic outcome the
/// backends must agree on even though their per-packet costs differ.
std::uint64_t run_rr_wave(StackMode mode, int count) {
  sim::Engine engine;
  Bridge bridge(engine, "br", kCosts);
  PortBackend pa(engine, "pa", kCosts), pb(engine, "pb", kCosts);
  auto cli = make_stack(mode, engine, "cli", kCosts, nullptr);
  auto srv = make_stack(mode, engine, "srv", kCosts, nullptr);
  Device::connect(pa, 0, bridge, bridge.add_port());
  Device::connect(pb, 0, bridge, bridge.add_port());
  const Ipv4Address ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  cli->add_interface(pa, {"eth0", MacAddress::local_from_id(1), ip_a,
                          kSubnet, 1500, 1448});
  srv->add_interface(pb, {"eth0", MacAddress::local_from_id(2), ip_b,
                          kSubnet, 1500, 1448});
  srv->udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery& d) {
    srv->udp_send(ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  std::uint64_t transactions = 0;
  int remaining = count - 1;
  cli->udp_bind(8, nullptr, [&](const StackBackend::UdpDelivery&) {
    ++transactions;
    if (remaining == 0) return;
    --remaining;
    cli->udp_send(ip_a, 8, ip_b, 7, 64, nullptr);
  });
  cli->udp_send(ip_a, 8, ip_b, 7, 64, nullptr);
  engine.run();
  return transactions;
}

TEST(BackendEquivalence, FastPathMatchesFullStackSemantics) {
  EXPECT_EQ(run_rr_wave(StackMode::kFull, 20),
            run_rr_wave(StackMode::kFastPath, 20));
}

// ---- stack-as-a-service ----------------------------------------------------

/// One RR scenario between a client stack and a server stack whose softirq
/// resource is supplied by the caller; returns {transactions, end_time}.
struct ServiceScenario {
  std::uint64_t transactions = 0;
  sim::TimePoint end_time = 0;
};

ServiceScenario run_hosted_rr(bool use_service, int count) {
  sim::Engine engine;
  Bridge bridge(engine, "br", kCosts);
  PortBackend pa(engine, "pa", kCosts), pb(engine, "pb", kCosts);
  FullStack cli(engine, "cli", kCosts, nullptr);

  // The variant under test: a dedicated softirq resource versus a
  // StackService worker hosting exactly one guest.  With one tenant the
  // worker serializes identically, so the runs must be bit-for-bit equal.
  std::unique_ptr<sim::SerialResource> own;
  std::unique_ptr<StackService> service;
  std::unique_ptr<StackBackend> owned_srv;
  StackBackend* srv = nullptr;
  if (use_service) {
    service = std::make_unique<StackService>(engine, "svc", kCosts);
    srv = &service->attach_guest("srv");
  } else {
    own = std::make_unique<sim::SerialResource>(engine, "svc.worker");
    owned_srv = std::make_unique<FullStack>(engine, "srv", kCosts, own.get());
    srv = owned_srv.get();
  }

  Device::connect(pa, 0, bridge, bridge.add_port());
  Device::connect(pb, 0, bridge, bridge.add_port());
  const Ipv4Address ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  cli.add_interface(pa, {"eth0", MacAddress::local_from_id(1), ip_a, kSubnet,
                         1500, 1448});
  srv->add_interface(pb, {"eth0", MacAddress::local_from_id(2), ip_b,
                          kSubnet, 1500, 1448});
  srv->udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery& d) {
    srv->udp_send(ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  ServiceScenario out;
  int remaining = count - 1;
  cli.udp_bind(8, nullptr, [&](const StackBackend::UdpDelivery&) {
    ++out.transactions;
    if (remaining == 0) return;
    --remaining;
    cli.udp_send(ip_a, 8, ip_b, 7, 64, nullptr);
  });
  cli.udp_send(ip_a, 8, ip_b, 7, 64, nullptr);
  engine.run();
  out.end_time = engine.now();
  return out;
}

TEST(StackService, SingleGuestBitEqualToDedicatedFullStack) {
  const ServiceScenario dedicated = run_hosted_rr(false, 25);
  const ServiceScenario hosted = run_hosted_rr(true, 25);
  EXPECT_EQ(dedicated.transactions, hosted.transactions);
  EXPECT_EQ(dedicated.end_time, hosted.end_time);
}

TEST(StackService, AttributesWorkerTimePerGuest) {
  sim::Engine engine;
  Bridge bridge(engine, "br", kCosts);
  StackService service(engine, "svc", kCosts);
  StackBackend& g0 = service.attach_guest("vm/g0");
  StackBackend& g1 = service.attach_guest("vm/g1");
  EXPECT_EQ(g0.kind(), StackKind::kServiceHosted);
  EXPECT_EQ(service.guest_count(), 2u);

  PortBackend p0(engine, "p0", kCosts), p1(engine, "p1", kCosts),
      pc(engine, "pc", kCosts);
  FullStack cli(engine, "cli", kCosts, nullptr);
  Device::connect(p0, 0, bridge, bridge.add_port());
  Device::connect(p1, 0, bridge, bridge.add_port());
  Device::connect(pc, 0, bridge, bridge.add_port());
  const Ipv4Address ip0(10, 0, 0, 1), ip1(10, 0, 0, 2), ipc(10, 0, 0, 9);
  g0.add_interface(p0, {"eth0", MacAddress::local_from_id(1), ip0, kSubnet,
                        1500, 1448});
  g1.add_interface(p1, {"eth0", MacAddress::local_from_id(2), ip1, kSubnet,
                        1500, 1448});
  cli.add_interface(pc, {"eth0", MacAddress::local_from_id(9), ipc, kSubnet,
                         1500, 1448});
  int got0 = 0, got1 = 0;
  g0.udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery&) { ++got0; });
  g1.udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery&) { ++got1; });
  // Asymmetric load: g0 sees 8 datagrams, g1 sees 2.
  for (int i = 0; i < 8; ++i) cli.udp_send(ipc, 1000, ip0, 7, 64, nullptr);
  for (int i = 0; i < 2; ++i) cli.udp_send(ipc, 1000, ip1, 7, 64, nullptr);
  engine.run();
  EXPECT_EQ(got0, 8);
  EXPECT_EQ(got1, 2);
  const sim::Duration t0 = service.attributed_soft_ns("vm/g0");
  const sim::Duration t1 = service.attributed_soft_ns("vm/g1");
  EXPECT_GT(t0, t1);
  EXPECT_GT(t1, 0);
  // Attribution is complete: the shared worker's busy time is exactly the
  // sum of its tenants' charges.
  EXPECT_EQ(t0 + t1, service.worker().busy_time());
  EXPECT_EQ(service.attributed_soft_ns("vm/unknown"), 0);
}

TEST(StackService, DetachMidRunWithInFlightTrainIsSafe) {
  const std::int64_t pool_before = PacketPool::live_nodes();
  {
    sim::Engine engine;
    Bridge bridge(engine, "br", kCosts);
    StackService service(engine, "svc", kCosts);
    StackBackend& g0 = service.attach_guest("vm/g0");
    PortBackend p0(engine, "p0", kCosts), pc(engine, "pc", kCosts);
    FullStack cli(engine, "cli", kCosts, nullptr);
    Device::connect(p0, 0, bridge, bridge.add_port());
    Device::connect(pc, 0, bridge, bridge.add_port());
    const Ipv4Address ip0(10, 0, 0, 1), ipc(10, 0, 0, 9);
    g0.add_interface(p0, {"eth0", MacAddress::local_from_id(1), ip0, kSubnet,
                          1500, 1448});
    cli.add_interface(pc, {"eth0", MacAddress::local_from_id(9), ipc,
                           kSubnet, 1500, 1448});
    int got = 0;
    g0.udp_bind(7, nullptr,
                [&](const StackBackend::UdpDelivery&) { ++got; });
    cli.udp_send(ipc, 1000, ip0, 7, 64, nullptr);
    engine.run();
    ASSERT_EQ(got, 1);

    // A burst is in flight (queued datapath events reference the hosted
    // stack) when the tenant detaches: the stack is retired, not freed,
    // and the engine drains without touching dead memory.
    for (int i = 0; i < 6; ++i) cli.udp_send(ipc, 1000, ip0, 7, 64, nullptr);
    service.detach_guest(g0);
    EXPECT_EQ(service.guest_count(), 0u);
    EXPECT_EQ(service.retired_count(), 1u);
    engine.run();
    EXPECT_EQ(got, 1);  // the detached tenant received nothing further
    // Detaching an unknown stack is a no-op.
    FullStack other(engine, "other", kCosts, nullptr);
    service.detach_guest(other);
    EXPECT_EQ(service.retired_count(), 1u);
  }
  // Retired stacks and their parked packets died with the service scope.
  EXPECT_EQ(PacketPool::live_nodes(), pool_before);
}

// ---- SBO callbacks ---------------------------------------------------------

TEST(TcpSocketCallbacks, SmallHandlersStayInline) {
  sim::Engine engine;
  Bridge bridge(engine, "br", kCosts);
  PortBackend pa(engine, "pa", kCosts), pb(engine, "pb", kCosts);
  FullStack alice(engine, "alice", kCosts, nullptr);
  FullStack bob(engine, "bob", kCosts, nullptr);
  Device::connect(pa, 0, bridge, bridge.add_port());
  Device::connect(pb, 0, bridge, bridge.add_port());
  const Ipv4Address ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  alice.add_interface(pa, {"eth0", MacAddress::local_from_id(1), ip_a,
                           kSubnet, 1500, 1448});
  bob.add_interface(pb, {"eth0", MacAddress::local_from_id(2), ip_b, kSubnet,
                         1500, 1448});

  sim::reset_handler_heap_fallbacks();
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&received](TcpSocket sock) {
    sock.set_on_receive([&received](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(2000); });
  engine.run();
  EXPECT_EQ(received, 2000u);
  // Every socket callback in this test fits the inline buffer: the whole
  // exchange runs without a single handler heap allocation.
  EXPECT_EQ(sim::handler_heap_fallbacks(), 0u);

  // An oversized capture spills — and is counted, so regressions that push
  // hot-path handlers past the SBO budget are visible.
  std::array<char, 256> big{};
  client.set_on_receive([big](std::uint32_t) { (void)big; });
  EXPECT_EQ(sim::handler_heap_fallbacks(), 1u);
}

}  // namespace
}  // namespace nestv::net
