#include "session/session.hpp"

namespace infopipe::session {

std::string to_string(QosClass c) {
  switch (c) {
    case QosClass::kGold: return "gold";
    case QosClass::kSilver: return "silver";
    case QosClass::kBronze: return "bronze";
  }
  return "?";
}

bool parse_qos(const std::string& s, QosClass& out) {
  if (s == "gold") { out = QosClass::kGold; return true; }
  if (s == "silver") { out = QosClass::kSilver; return true; }
  if (s == "bronze") { out = QosClass::kBronze; return true; }
  return false;
}

}  // namespace infopipe::session
