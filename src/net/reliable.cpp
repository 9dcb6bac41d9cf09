#include "net/reliable.hpp"

namespace infopipe::net {

namespace {
/// Internal message types (sender/receiver agents only); values allotted in
/// rt/msg_registry.hpp.
constexpr int kMsgArqSubmit = rt::msg::kNetArqSubmit;
constexpr int kMsgArqTimer = rt::msg::kNetArqTimer;  ///< payload: seq
constexpr std::size_t kAckBytes = 12;
constexpr std::size_t kArqHeaderBytes = 12;
}  // namespace

ReliableTransport::ReliableTransport(rt::Runtime& rt, SimLink& forward,
                                     SimLink& reverse, rt::Time rto)
    : rt_(&rt), fwd_(&forward), rev_(&reverse), rto_(rto) {
  sender_agent_ = rt_->spawn("arq.sender", rt::kPriorityData,
                             [this](rt::Runtime& r, rt::Message m) {
                               return sender_code(r, std::move(m));
                             });
  receiver_agent_ = rt_->spawn("arq.receiver", rt::kPriorityData,
                               [this](rt::Runtime& r, rt::Message m) {
                                 return receiver_code(r, std::move(m));
                               });
  fwd_->attach_receiver(receiver_agent_);
  rev_->attach_receiver(sender_agent_);
  obs_retx_ = &rt_->metrics().counter("net.arq_retransmissions");
  obs_delivered_ = &rt_->metrics().counter("net.arq_delivered");
}

ReliableTransport::~ReliableTransport() {
  if (rt_->alive(sender_agent_)) rt_->kill(sender_agent_);
  if (rt_->alive(receiver_agent_)) rt_->kill(receiver_agent_);
}

double ReliableTransport::bandwidth() const { return fwd_->bandwidth(); }

void ReliableTransport::send(rt::Runtime& rt, Item packet) {
  rt::Message m{kMsgArqSubmit, rt::MsgClass::kData};
  m.payload = std::move(packet);
  rt.send(sender_agent_, std::move(m));
}

void ReliableTransport::transmit(rt::Runtime& rt, std::uint64_t seq,
                                 Item wire) {
  ++stats_.transmissions;
  fwd_->send(rt, std::move(wire));
  rt::Message timer{kMsgArqTimer, rt::MsgClass::kTimer};
  timer.payload = seq;
  rt.send_at(rt.now() + rto_, sender_agent_, std::move(timer));
}

rt::CodeResult ReliableTransport::sender_code(rt::Runtime& rt,
                                              rt::Message m) {
  switch (m.type) {
    case kMsgArqSubmit: {
      Item x = m.take<Item>();
      ArqPacket pkt;
      pkt.seq = next_seq_++;
      pkt.eos = x.is_eos();
      if (!pkt.eos) pkt.item = std::move(x);
      const std::uint64_t seq = pkt.seq;
      const std::size_t body =
          pkt.eos ? 0 : std::max<std::size_t>(pkt.item.size_bytes, 1);
      // Marshal ONCE: the wire item (and its pooled payload block) is held
      // until acked; retransmissions re-send the same block.
      Item wire = Item::of<ArqPacket>(std::move(pkt));
      wire.seq = seq;
      wire.size_bytes = body + kArqHeaderBytes;
      in_flight_.emplace(seq, wire);
      ++stats_.submitted;
      transmit(rt, seq, std::move(wire));
      return rt::CodeResult::kContinue;
    }
    case kMsgArqTimer: {
      const auto* seq = m.get<std::uint64_t>();
      if (seq == nullptr) return rt::CodeResult::kContinue;
      auto it = in_flight_.find(*seq);
      if (it != in_flight_.end()) {
        ++stats_.retransmissions;
        obs_retx_->inc();
        transmit(rt, *seq, it->second);
      }
      return rt::CodeResult::kContinue;
    }
    case kMsgNetDeliver: {  // ACKs from the reverse link
      for (const Item& ack_item : m.get<Burst>()->items()) {
        const ArqAck* ack = ack_item.payload<ArqAck>();
        if (ack != nullptr && in_flight_.erase(ack->seq) > 0) {
          ++stats_.acked;
        }
      }
      return rt::CodeResult::kContinue;
    }
    default:
      return rt::CodeResult::kContinue;
  }
}

rt::CodeResult ReliableTransport::receiver_code(rt::Runtime& rt,
                                                rt::Message m) {
  if (m.type != kMsgNetDeliver) return rt::CodeResult::kContinue;
  for (const Item& wire : m.get<Burst>()->items()) {
    const ArqPacket* pkt = wire.payload<ArqPacket>();
    if (pkt == nullptr) continue;
    // Acknowledge everything we see, including duplicates (the original ACK
    // may have been what got lost).
    Item ack = Item::of<ArqAck>(ArqAck{pkt->seq});
    ack.size_bytes = kAckBytes;
    rev_->send(rt, std::move(ack));
    if (pkt->seq < next_deliver_ || reorder_.count(pkt->seq) != 0) {
      ++stats_.duplicates;
    } else {
      reorder_.emplace(pkt->seq, *pkt);
    }
  }

  // Release the in-order prefix to the consumer as one burst.
  Burst ready;
  while (!reorder_.empty() && reorder_.begin()->first == next_deliver_) {
    ArqPacket& p = reorder_.begin()->second;
    ready.push_back(p.eos ? Item::eos() : std::move(p.item));
    reorder_.erase(reorder_.begin());
    ++next_deliver_;
  }
  if (consumer_ != rt::kNoThread && !ready.empty()) {
    stats_.delivered += ready.items().size();
    obs_delivered_->inc(ready.items().size());
    rt.send(consumer_, rt::Message{kMsgNetDeliver, rt::MsgClass::kData,
                                   std::move(ready)});
  }
  return rt::CodeResult::kContinue;
}

}  // namespace infopipe::net
