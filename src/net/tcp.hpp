// Simplified TCP: three-way handshake, cumulative ACKs, fixed window,
// go-back-N retransmission, delayed ACKs, GSO-sized segmentation.
//
// Congestion control is deliberately absent (fixed window): the paper's
// TCP_STREAM numbers are steady-state saturation throughputs on a lossless
// local fabric, where the bottleneck is per-hop CPU work, not loss
// recovery.  The window is large enough (CostModel::tcp_window_bytes) that
// throughput is pipeline-limited, as on the testbed.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "net/stack_backend.hpp"
#include "sim/engine.hpp"
#include "sim/inline_task.hpp"

namespace nestv::net {

class TcpConnection {
 public:
  enum class State : std::uint8_t {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinSent,
    kDone,
  };

  /// `key` is (local_ip, local_port, remote_ip, remote_port); `app` is the
  /// application resource charged for socket syscalls on this connection.
  TcpConnection(StackBackend& stack, Ipv4Address local_ip,
                std::uint16_t local_port, Ipv4Address remote_ip,
                std::uint16_t remote_port, sim::SerialResource* app);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Client side: send SYN.
  void open_active();
  /// Server side: react to the peer's SYN (called by the stack's listener
  /// dispatch with the SYN packet).
  void open_passive(const Packet& syn);

  /// Application write: charges `app` (syscall + copy) then appends to the
  /// send buffer and pumps.  `on_queued` fires when the bytes are buffered.
  void app_send(std::uint32_t bytes, sim::InlineTask&& on_queued = {});

  /// Segment arrival from the stack (already past INPUT).
  void on_segment(const Packet& p);

  void close();

  void set_on_receive(sim::InlineHandler<std::uint32_t> cb) {
    on_receive_ = std::move(cb);
  }
  void set_on_connected(sim::InlineHandler<> cb) {
    on_connected_ = std::move(cb);
  }
  void set_on_closed(sim::InlineHandler<> cb) { on_closed_ = std::move(cb); }
  /// Fires whenever the send buffer drains below one window.
  void set_on_writable(sim::InlineHandler<> cb) {
    on_writable_ = std::move(cb);
  }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_rx_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_tx_acked_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint32_t buffered() const { return send_buffer_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  /// Effective congestion window in bytes (= the flow-control window when
  /// congestion control is disabled).
  [[nodiscard]] std::uint32_t congestion_window() const;
  /// Smoothed RTT estimate in ns (0 until the first sample).
  [[nodiscard]] double srtt_ns() const { return srtt_valid_ ? srtt_ns_ : 0; }

 private:
  void pump();
  void emit_segment(std::uint32_t bytes, TcpFlags flags);
  void send_ack_now();
  void schedule_delayed_ack();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void deliver_to_app(std::uint32_t bytes);
  void app_wakeup_flush();
  void become_established();

  StackBackend* stack_;
  Ipv4Address local_ip_;
  std::uint16_t local_port_;
  Ipv4Address remote_ip_;
  std::uint16_t remote_port_;
  sim::SerialResource* app_;

  State state_ = State::kClosed;

  // Sender state (sequence space counts payload bytes; SYN/FIN occupy one).
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t send_buffer_ = 0;  ///< bytes accepted from app, unsent
  std::uint64_t bytes_tx_acked_ = 0;

  // Receiver state.
  std::uint32_t rcv_nxt_ = 0;
  std::uint64_t bytes_rx_ = 0;
  int segs_since_ack_ = 0;
  std::uint32_t pending_app_bytes_ = 0;
  bool app_wakeup_scheduled_ = false;

  sim::EventId delayed_ack_timer_ = 0;
  sim::EventId rto_timer_ = 0;
  std::uint64_t retransmits_ = 0;
  bool fin_queued_ = false;

  // Congestion control state (only driven when the cost model enables it).
  std::uint32_t cwnd_ = 0;      ///< congestion window, bytes (0 = uninit)
  std::uint32_t ssthresh_ = 0;  ///< slow-start threshold, bytes
  // RFC 6298 RTT estimation (Karn's algorithm: one untimed-on-retransmit
  // sample outstanding at a time).
  bool srtt_valid_ = false;
  double srtt_ns_ = 0.0;
  double rttvar_ns_ = 0.0;
  std::uint32_t timed_seq_ = 0;      ///< ack covering this seq ends the sample
  sim::TimePoint timed_sent_at_ = 0;
  bool timing_sample_active_ = false;

  [[nodiscard]] sim::Duration current_rto() const;
  void rtt_sample(sim::Duration rtt);
  void on_ack_advance(std::uint32_t acked, std::uint32_t gso);

  sim::InlineHandler<std::uint32_t> on_receive_;
  sim::InlineHandler<> on_connected_;
  sim::InlineHandler<> on_closed_;
  sim::InlineHandler<> on_writable_;
};

}  // namespace nestv::net
