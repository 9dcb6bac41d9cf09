#include "net/remote_node.hpp"

#include <exception>
#include <optional>
#include <utility>

namespace infopipe::net {

namespace {

constexpr char kUnit = '\x1F';

std::pair<std::string, std::string> split2(const std::string& s) {
  const auto pos = s.find(kUnit);
  if (pos == std::string::npos) return {s, ""};
  return {s.substr(0, pos), s.substr(pos + 1)};
}

/// Runs a blocking control call either inline (already on a user-level
/// thread) or on a temporary thread while driving the runtime in small
/// run_until() slices. The slices matter: socket replies are seen when the
/// runtime parks in its epoll set, i.e. AFTER it has gone quiescent, so a
/// single run() would return with the call still blocked. call_control's
/// own timeout bounds the loop.
std::string drive_control(rt::Runtime& rt, SocketTransport& link,
                          wire::ControlOp op, const std::string& text,
                          rt::Time timeout) {
  if (rt.current() != rt::kNoThread) {
    return link.call_control(op, text, timeout);
  }
  std::optional<std::string> out;
  std::exception_ptr error;
  bool done = false;
  const rt::ThreadId tmp = rt.spawn(
      "net.rpc", rt::kPriorityControl,
      [&](rt::Runtime&, rt::Message) -> rt::CodeResult {
        try {
          out = link.call_control(op, text, timeout);
        } catch (...) {
          error = std::current_exception();
        }
        done = true;
        return rt::CodeResult::kTerminate;
      });
  rt.send(tmp, rt::Message{0, rt::MsgClass::kData});
  while (!done) rt.run_until(rt.now() + rt::milliseconds(10));
  if (error) std::rethrow_exception(error);
  if (!out) throw RemoteError("control call did not complete");
  return std::move(*out);
}

}  // namespace

std::string LocalNodeEndpoint::create(const std::string& type,
                                      const std::string& name,
                                      const std::string& args) {
  if (node_ == nullptr) {
    throw RemoteError("endpoint " + cnode_->name() + " is read-only");
  }
  return remote_create(*rt_, *node_, type, name, args);
}

RemoteNode::RemoteNode(rt::Runtime& rt, SocketTransport& link,
                       std::string name, rt::Time timeout)
    : rt_(&rt), link_(&link), name_(std::move(name)), timeout_(timeout) {}

std::string RemoteNode::call(wire::ControlOp op, const std::string& text) {
  return drive_control(*rt_, *link_, op, text, timeout_);
}

Typespec RemoteNode::output_offer(const std::string& component, int port) {
  return unmarshal_typespec(call(
      wire::ControlOp::kTypespecOut,
      component + std::string(1, kUnit) + std::to_string(port)));
}

Typespec RemoteNode::input_requirement(const std::string& component,
                                       int port) {
  return unmarshal_typespec(call(
      wire::ControlOp::kTypespecIn,
      component + std::string(1, kUnit) + std::to_string(port)));
}

std::string RemoteNode::create(const std::string& type,
                               const std::string& name,
                               const std::string& args) {
  return call(wire::ControlOp::kCreate, type + std::string(1, kUnit) + name +
                                            std::string(1, kUnit) + args);
}

std::string RemoteNode::start_flow(const std::string& args) {
  return call(wire::ControlOp::kStart, args);
}

NodeServer::NodeServer(rt::Runtime& rt, Node& node, SocketTransport& link)
    : rt_(&rt), node_(&node), link_(&link) {
  link_->set_control_handler(
      [this](std::uint64_t id, wire::ControlOp op, const std::string& text) {
        handle(id, op, text);
      });
}

void NodeServer::handle(std::uint64_t id, wire::ControlOp op,
                        const std::string& text) {
  // Runs on the transport's agent thread; every request gets exactly one
  // reply, errors included — a remote caller must never wait out a timeout
  // for a malformed request when we can tell it what went wrong.
  try {
    switch (op) {
      case wire::ControlOp::kTypespecOut:
      case wire::ControlOp::kTypespecIn: {
        const auto [comp_name, port_str] = split2(text);
        Component* c = node_->lookup(comp_name);
        if (c == nullptr) {
          throw RemoteError("no such component: " + comp_name);
        }
        int port = 0;
        if (!port_str.empty()) {
          try {
            port = std::stoi(port_str);
          } catch (const std::exception&) {
            throw RemoteError("malformed port: " + port_str);
          }
        }
        const Typespec spec = op == wire::ControlOp::kTypespecIn
                                  ? c->input_requirement(port)
                                  : c->output_offer(port);
        link_->send_control_reply(id, true, marshal_typespec(spec));
        break;
      }
      case wire::ControlOp::kCreate: {
        const auto [type, rest] = split2(text);
        const auto [comp_name, args] = split2(rest);
        Component& c = node_->create(type, comp_name, args);
        link_->send_control_reply(id, true, c.name());
        break;
      }
      case wire::ControlOp::kStart: {
        start_requested_ = true;
        const std::string answer = on_start_ ? on_start_(text) : "ok";
        link_->send_control_reply(id, true, answer);
        break;
      }
      default:
        throw RemoteError("unknown control op " +
                          std::to_string(static_cast<int>(op)));
    }
  } catch (const std::exception& e) {
    link_->send_control_reply(id, false, e.what());
  }
}

}  // namespace infopipe::net
