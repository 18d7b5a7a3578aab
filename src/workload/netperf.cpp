#include "workload/netperf.hpp"

#include <memory>

#include "scenario/deploy.hpp"

namespace nestv::workload {

Netperf::Netperf(sim::Engine& engine, scenario::Endpoint client,
                 scenario::Endpoint server, std::uint16_t port)
    : engine_(&engine),
      client_(std::move(client)),
      server_(std::move(server)),
      port_(port) {}

RrResult Netperf::run_udp_rr(std::uint32_t msg_bytes,
                             sim::Duration duration) {
  const std::uint16_t client_port = 20001;
  const sim::TimePoint deadline = engine_->now() + duration;

  scenario::bind_udp_echo(server_, port_);

  auto latencies = std::make_shared<sim::Samples>();
  auto issued_at = std::make_shared<sim::TimePoint>(0);
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [this, msg_bytes, deadline, issued_at, issue] {
    if (engine_->now() >= deadline) return;
    *issued_at = engine_->now();
    client_.stack->udp_send(client_.local_ip, 20001, server_.service_ip,
                            port_, msg_bytes, client_.app);
  };

  client_.stack->udp_bind(
      client_port, client_.app,
      [this, latencies, issued_at, issue](
          const net::NetworkStack::UdpDelivery&) {
        latencies->add(sim::to_microseconds(engine_->now() - *issued_at));
        (*issue)();
      });

  (*issue)();
  engine_->run_until(deadline + sim::milliseconds(50));

  client_.stack->udp_unbind(client_port);
  server_.stack->udp_unbind(port_);
  // The issue lambda captures its own shared_ptr; break the cycle so the
  // chain (and everything it holds) is released at teardown.
  *issue = nullptr;

  RrResult r;
  r.transactions = latencies->count();
  r.mean_latency_us = latencies->mean();
  r.stddev_latency_us = latencies->stddev();
  r.p99_latency_us = latencies->percentile(99.0);
  r.transactions_per_sec =
      static_cast<double>(r.transactions) / sim::to_seconds(duration);
  return r;
}

StreamResult Netperf::run_tcp_stream(std::uint32_t msg_bytes,
                                     sim::Duration duration) {
  const sim::TimePoint deadline = engine_->now() + duration;

  auto server_bytes = std::make_shared<std::uint64_t>(0);
  server_.stack->tcp_listen(
      port_, server_.app, [server_bytes](net::TcpSocket sock) {
        sock.set_on_receive(
            [server_bytes](std::uint32_t n) { *server_bytes += n; });
      });

  const net::TcpSocket sock = client_.stack->tcp_connect(
      client_.local_ip, server_.service_ip, port_, client_.app);
  scenario::start_bulk_send(sock, *engine_, msg_bytes, deadline);

  engine_->run_until(deadline);
  const std::uint64_t delivered = *server_bytes;
  // Let in-flight segments land (they are not counted) before teardown.
  engine_->run_until(deadline + sim::milliseconds(10));

  StreamResult r;
  r.bytes_delivered = delivered;
  r.throughput_mbps = static_cast<double>(delivered) * 8.0 /
                      sim::to_seconds(duration) / 1e6;
  r.retransmits = sock.retransmits();
  return r;
}

}  // namespace nestv::workload
