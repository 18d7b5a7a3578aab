#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nestv::net {

TcpConnection::TcpConnection(StackBackend& stack, Ipv4Address local_ip,
                             std::uint16_t local_port, Ipv4Address remote_ip,
                             std::uint16_t remote_port,
                             sim::SerialResource* app)
    : stack_(&stack),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      app_(app) {}

TcpConnection::~TcpConnection() {
  cancel_rto();
  if (delayed_ack_timer_ != 0) stack_->engine().cancel(delayed_ack_timer_);
}

void TcpConnection::open_active() {
  assert(state_ == State::kClosed);
  state_ = State::kSynSent;
  snd_nxt_ = 1;  // SYN consumes sequence 0
  emit_segment(0, TcpFlags{.syn = true});
  arm_rto();
}

void TcpConnection::open_passive(const Packet& syn) {
  assert(state_ == State::kClosed && syn.tcp_flags.syn);
  state_ = State::kSynReceived;
  rcv_nxt_ = syn.tcp_seq + 1;
  snd_nxt_ = 1;
  emit_segment(0, TcpFlags{.syn = true, .ack = true});
  arm_rto();
}

void TcpConnection::become_established() {
  state_ = State::kEstablished;
  if (on_connected_) on_connected_();
}

void TcpConnection::app_send(std::uint32_t bytes, sim::InlineTask&& on_queued) {
  if (bytes == 0 || state_ == State::kDone || state_ == State::kFinSent) {
    return;
  }
  const auto& c = stack_->costs();
  const auto cost =
      c.syscall_pkt +
      static_cast<sim::Duration>(c.copy_byte * static_cast<double>(bytes));
  auto push = [this, bytes] {
    send_buffer_ += bytes;
    pump();
  };
  // As in NetworkStack::udp_send, `on_queued` is scheduled as its own
  // zero-cost FIFO item instead of being captured (an InlineTask does not
  // fit inside another task's inline storage).
  if (app_ != nullptr) {
    stack_->resource_run(app_, sim::CpuCategory::kSys, cost, std::move(push));
    if (on_queued) {
      stack_->resource_run(app_, sim::CpuCategory::kSys, 0,
                           std::move(on_queued));
    }
  } else {
    push();
    if (on_queued) on_queued();
  }
}

void TcpConnection::pump() {
  if (state_ != State::kEstablished && state_ != State::kFinSent) return;
  const auto& c = stack_->costs();
  // Segment size follows the egress interface of the route to the peer
  // (loopback for local destinations) — this is where TSO/GSO shows up.
  const std::uint32_t gso = stack_->egress_gso(remote_ip_);
  if (c.tcp_congestion_control && cwnd_ == 0) {
    cwnd_ = c.tcp_init_cwnd_segments * gso;  // IW10
    ssthresh_ = c.tcp_window_bytes;
  }
  const std::uint32_t window =
      c.tcp_congestion_control ? std::min(cwnd_, c.tcp_window_bytes)
                               : c.tcp_window_bytes;

  bool sent = false;
  while (send_buffer_ > 0) {
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) break;
    const std::uint32_t room = window - in_flight;
    const std::uint32_t seg = std::min({send_buffer_, gso, room});
    if (seg == 0) break;
    // Nagle: hold a sub-GSO segment while data is outstanding, so streams
    // coalesce into TSO-sized super-frames (request/response traffic has
    // in_flight == 0 at send time and is never delayed).
    if (seg < gso && in_flight > 0 && !fin_queued_) break;
    send_buffer_ -= seg;
    TcpFlags flags{.ack = true};
    if (send_buffer_ == 0) flags.psh = true;  // end of app burst
    emit_segment(seg, flags);
    sent = true;
  }
  if (fin_queued_ && send_buffer_ == 0 && state_ == State::kEstablished) {
    state_ = State::kFinSent;
    emit_segment(0, TcpFlags{.ack = true, .fin = true});
    sent = true;
  }
  if (sent) arm_rto();
  if (on_writable_ && send_buffer_ < window) on_writable_();
}

void TcpConnection::emit_segment(std::uint32_t bytes, TcpFlags flags) {
  const auto& c = stack_->costs();
  Packet p;
  p.src_ip = local_ip_;
  p.dst_ip = remote_ip_;
  p.proto = L4Proto::kTcp;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.tcp_seq = flags.syn ? 0 : snd_nxt_;
  p.tcp_ack = rcv_nxt_;
  p.tcp_flags = flags;
  p.tcp_window = c.tcp_window_bytes;
  p.payload_bytes = bytes;
  p.packet_id = stack_->next_packet_id();
  p.sent_at = stack_->engine().now();
  if (!flags.syn) {
    snd_nxt_ += bytes + (flags.fin ? 1 : 0);
    if (bytes > 0 && stack_->costs().tcp_congestion_control &&
        !timing_sample_active_) {
      timed_seq_ = snd_nxt_;
      timed_sent_at_ = stack_->engine().now();
      timing_sample_active_ = true;
    }
  }
  segs_since_ack_ = 0;  // any segment we emit carries our current ack
  if (delayed_ack_timer_ != 0) {
    stack_->engine().cancel(delayed_ack_timer_);
    delayed_ack_timer_ = 0;
  }
  // L4 segment processing happens in softirq context, then the packet
  // enters the stack's output path.
  stack_->l4_emit(c.l4_segment, std::move(p));
}

void TcpConnection::send_ack_now() {
  emit_segment(0, TcpFlags{.ack = true});
}

void TcpConnection::schedule_delayed_ack() {
  if (delayed_ack_timer_ != 0) return;
  delayed_ack_timer_ = stack_->engine().schedule_in(
      stack_->costs().tcp_delayed_ack, [this] {
        delayed_ack_timer_ = 0;
        if (state_ == State::kEstablished || state_ == State::kFinSent) {
          send_ack_now();
        }
      });
}

sim::Duration TcpConnection::current_rto() const {
  const auto& c = stack_->costs();
  if (!c.tcp_congestion_control || !srtt_valid_) return c.tcp_rto;
  const auto rto =
      static_cast<sim::Duration>(srtt_ns_ + 4.0 * rttvar_ns_);
  return std::max(rto, c.tcp_min_rto);
}

void TcpConnection::rtt_sample(sim::Duration rtt) {
  const auto r = static_cast<double>(rtt);
  if (!srtt_valid_) {
    srtt_ns_ = r;
    rttvar_ns_ = r / 2.0;
    srtt_valid_ = true;
    return;
  }
  // RFC 6298 with the standard alpha=1/8, beta=1/4.
  rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - r);
  srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * r;
}

void TcpConnection::on_ack_advance(std::uint32_t acked, std::uint32_t gso) {
  if (!stack_->costs().tcp_congestion_control) return;
  if (timing_sample_active_ && snd_una_ >= timed_seq_) {
    rtt_sample(stack_->engine().now() - timed_sent_at_);
    timing_sample_active_ = false;
  }
  if (cwnd_ == 0) return;  // not initialized yet (no data sent)
  if (cwnd_ < ssthresh_) {
    cwnd_ += acked;  // slow start: exponential per RTT
  } else {
    // Congestion avoidance: ~one segment per RTT.
    cwnd_ += std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(gso) * acked / cwnd_));
  }
}

void TcpConnection::arm_rto() {
  cancel_rto();
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding
  rto_timer_ = stack_->engine().schedule_in(current_rto(), [this] {
    rto_timer_ = 0;
    on_rto();
  });
}

void TcpConnection::cancel_rto() {
  if (rto_timer_ != 0) {
    stack_->engine().cancel(rto_timer_);
    rto_timer_ = 0;
  }
}

void TcpConnection::on_rto() {
  if (state_ == State::kDone) return;
  ++retransmits_;
  if (stack_->costs().tcp_congestion_control && cwnd_ != 0) {
    const std::uint32_t flight = snd_nxt_ - snd_una_;
    const std::uint32_t mss = stack_->egress_gso(remote_ip_);
    ssthresh_ = std::max(flight / 2, 2 * mss);
    cwnd_ = mss;            // back to one segment
    timing_sample_active_ = false;  // Karn: never time retransmissions
  }
  if (state_ == State::kSynSent) {
    emit_segment(0, TcpFlags{.syn = true});
    arm_rto();
    return;
  }
  if (state_ == State::kSynReceived) {
    emit_segment(0, TcpFlags{.syn = true, .ack = true});
    arm_rto();
    return;
  }
  // Go-back-N: rewind and resend everything outstanding.
  const std::uint32_t outstanding = snd_nxt_ - snd_una_;
  snd_nxt_ = snd_una_;
  send_buffer_ += outstanding;
  if (state_ == State::kFinSent) {
    // FIN occupied one sequence unit; strip it, it is re-queued by pump.
    if (send_buffer_ > 0) send_buffer_ -= 1;
    state_ = State::kEstablished;
    fin_queued_ = true;
  }
  pump();
}

void TcpConnection::on_segment(const Packet& p) {
  if (state_ == State::kDone) {
    // TIME_WAIT-lite: a retransmitted FIN from the peer (our final ACK was
    // lost or still in flight) must be re-ACKed or the peer RTOs forever.
    if (p.tcp_flags.fin) {
      if (p.tcp_seq == rcv_nxt_) rcv_nxt_ += 1;
      emit_segment(0, TcpFlags{.ack = true});
    }
    return;
  }

  if (p.tcp_flags.rst) {
    state_ = State::kDone;
    cancel_rto();
    if (on_closed_) on_closed_();
    return;
  }

  // ---- handshake --------------------------------------------------------
  if (state_ == State::kSynSent) {
    if (p.tcp_flags.syn && p.tcp_flags.ack) {
      rcv_nxt_ = p.tcp_seq + 1;
      snd_una_ = p.tcp_ack;
      cancel_rto();
      become_established();
      send_ack_now();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (p.tcp_flags.ack && p.tcp_ack >= 1) {
      snd_una_ = p.tcp_ack;
      cancel_rto();
      become_established();
      // Fall through: the ACK may carry data (e.g. request piggyback).
    } else {
      return;
    }
  }

  // ---- ACK processing ----------------------------------------------------
  if (p.tcp_flags.ack && p.tcp_ack > snd_una_) {
    const std::uint32_t acked = p.tcp_ack - snd_una_;
    snd_una_ = p.tcp_ack;
    bytes_tx_acked_ += acked;
    on_ack_advance(acked, stack_->egress_gso(remote_ip_));
    if (snd_una_ == snd_nxt_) {
      cancel_rto();
      if (state_ == State::kFinSent) {
        state_ = State::kDone;
        if (on_closed_) on_closed_();
        return;
      }
    } else {
      arm_rto();
    }
    pump();
  }

  // ---- data --------------------------------------------------------------
  if (p.payload_bytes > 0) {
    if (p.tcp_seq == rcv_nxt_) {
      rcv_nxt_ += p.payload_bytes;
      bytes_rx_ += p.payload_bytes;
      deliver_to_app(p.payload_bytes);
      ++segs_since_ack_;
      if (segs_since_ack_ >= 2 || p.tcp_flags.psh) {
        send_ack_now();
      } else {
        schedule_delayed_ack();
      }
    } else {
      // Out-of-order (a drop upstream): no reassembly queue; dup-ACK so the
      // sender's RTO/go-back-N recovers.
      send_ack_now();
    }
  }

  // ---- FIN ----------------------------------------------------------------
  if (p.tcp_flags.fin && p.tcp_seq == rcv_nxt_) {
    rcv_nxt_ += 1;
    send_ack_now();
    if (state_ == State::kEstablished) {
      // Passive close: emit our FIN immediately (no half-close users here).
      state_ = State::kFinSent;
      emit_segment(0, TcpFlags{.ack = true, .fin = true});
      arm_rto();
    }
  }
}

void TcpConnection::deliver_to_app(std::uint32_t bytes) {
  pending_app_bytes_ += bytes;
  if (app_wakeup_scheduled_) return;
  app_wakeup_scheduled_ = true;
  // Scheduler wakeup of the blocked reader, then recv() syscall + copy.
  stack_->engine().schedule_in(stack_->costs().rx_wakeup,
                               [this] { app_wakeup_flush(); });
}

void TcpConnection::app_wakeup_flush() {
  app_wakeup_scheduled_ = false;
  const std::uint32_t bytes = pending_app_bytes_;
  pending_app_bytes_ = 0;
  if (bytes == 0) return;
  const auto& c = stack_->costs();
  const auto cost =
      c.syscall_pkt +
      static_cast<sim::Duration>(c.copy_byte * static_cast<double>(bytes));
  auto deliver = [this, bytes] {
    if (on_receive_) on_receive_(bytes);
  };
  if (app_ != nullptr) {
    stack_->resource_run(app_, sim::CpuCategory::kSys, cost,
                         std::move(deliver));
  } else {
    deliver();
  }
}

std::uint32_t TcpConnection::congestion_window() const {
  const auto& c = stack_->costs();
  if (!c.tcp_congestion_control || cwnd_ == 0) return c.tcp_window_bytes;
  return std::min(cwnd_, c.tcp_window_bytes);
}

void TcpConnection::close() {
  if (state_ == State::kDone || state_ == State::kFinSent) return;
  if (state_ != State::kEstablished) {
    state_ = State::kDone;
    cancel_rto();
    return;
  }
  fin_queued_ = true;
  pump();
}

}  // namespace nestv::net
