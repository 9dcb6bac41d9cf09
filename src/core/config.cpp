#include "core/config.hpp"

#include <cstdlib>

namespace infopipe {

InfopipeConfig& config() noexcept {
  static InfopipeConfig cfg = [] {
    InfopipeConfig c;
    if (const char* s = std::getenv("INFOPIPE_SEED")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(s, &end, 10);
      if (end != s) c.seed = static_cast<std::uint64_t>(v);
    }
    return c;
  }();
  return cfg;
}

}  // namespace infopipe
