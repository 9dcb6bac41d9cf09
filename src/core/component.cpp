#include "core/component.hpp"

#include "core/realization.hpp"

namespace infopipe {

std::string to_string(Style s) {
  switch (s) {
    case Style::kActive: return "active";
    case Style::kConsumer: return "consumer";
    case Style::kProducer: return "producer";
    case Style::kFunction: return "function";
    case Style::kBuffer: return "buffer";
    case Style::kPump: return "pump";
    case Style::kActiveSource: return "active-source";
    case Style::kPassiveSource: return "passive-source";
    case Style::kActiveSink: return "active-sink";
    case Style::kPassiveSink: return "passive-sink";
    case Style::kTee: return "tee";
  }
  return "?";
}

std::string to_string(const Event& e) {
  switch (e.type) {
    case kEventStart: return "START";
    case kEventStop: return "STOP";
    case kEventShutdown: return "SHUTDOWN";
    case kEventEndOfStream: return "EOS";
    case kEventFlush: return "FLUSH";
    case kEventQualityHint: return "QUALITY";
    case kEventWindowResize: return "RESIZE";
    case kEventFrameRelease: return "FRAME-RELEASE";
    case kEventSensorReport: return "SENSOR";
    case kEventReservationDenied: return "RESERVATION-DENIED";
    default: return "user(" + std::to_string(e.type) + ")";
  }
}

int Component::in_port_count() const {
  switch (style()) {
    case Style::kActiveSource:
    case Style::kPassiveSource:
      return 0;
    default:
      return 1;
  }
}

int Component::out_port_count() const {
  switch (style()) {
    case Style::kActiveSink:
    case Style::kPassiveSink:
      return 0;
    default:
      return 1;
  }
}

Polarity Component::in_polarity(int /*port*/) const {
  switch (style()) {
    case Style::kPump:
    case Style::kActiveSink:
      return Polarity::kPositive;  // makes calls to pull
    case Style::kBuffer:
    case Style::kPassiveSink:
      return Polarity::kNegative;  // receives pushes
    default:
      return Polarity::kPolymorphic;  // filters: α→α
  }
}

Polarity Component::out_polarity(int /*port*/) const {
  switch (style()) {
    case Style::kPump:
    case Style::kActiveSource:
      return Polarity::kPositive;  // makes calls to push
    case Style::kBuffer:
    case Style::kPassiveSource:
      return Polarity::kNegative;  // receives pulls
    default:
      return Polarity::kPolymorphic;
  }
}

Typespec Component::input_requirement(int /*port*/) const { return {}; }

Typespec Component::output_offer(int /*port*/) const { return {}; }

Typespec Component::transform_downstream(const Typespec& in, int /*in_port*/,
                                         int out_port) const {
  return in.overlay(output_offer(out_port));
}

void Component::handle_event(const Event& /*e*/) {}

void Component::control_upstream(const Event& e, int in_port) {
  if (realization_ == nullptr ||
      in_port >= static_cast<int>(upstream_neighbor_.size()) ||
      upstream_neighbor_[static_cast<std::size_t>(in_port)] == nullptr) {
    throw NotWired(name() + ": no upstream neighbor on port " +
                   std::to_string(in_port));
  }
  realization_->post_event_to(
      *upstream_neighbor_[static_cast<std::size_t>(in_port)], e);
}

void Component::broadcast(const Event& e) {
  if (realization_ == nullptr) {
    throw NotWired(name() + ": not part of a realized pipeline");
  }
  realization_->post_event(e);
}

rt::Time Component::pipeline_now() const {
  if (realization_ == nullptr) return 0;
  return realization_->runtime().now();
}

Item ActiveComponent::pull_prev() {
  if (!pull_link_) throw NotWired(name() + ": pull side not wired");
  return pull_link_();
}

void ActiveComponent::push_next(Item x) {
  if (!push_link_) throw NotWired(name() + ": push side not wired");
  push_link_(std::move(x));
}

void Consumer::push_next(Item x) {
  if (!push_link_) throw NotWired(name() + ": push side not wired");
  push_link_(std::move(x));
}

Item Producer::pull_prev() {
  if (!pull_link_) throw NotWired(name() + ": pull side not wired");
  return pull_link_();
}

}  // namespace infopipe
