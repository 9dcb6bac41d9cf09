#include "rt/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define IP_RT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IP_RT_ASAN 1
#endif
#endif

#ifdef IP_RT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace infopipe::rt {

namespace {
std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

Stack::Stack(std::size_t usable_size) {
  const std::size_t ps = page_size();
  usable_size_ = round_up(usable_size, ps);
  map_size_ = usable_size_ + ps;  // one guard page at the low end

  void* mem = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc{};
  if (::mprotect(mem, ps, PROT_NONE) != 0) {
    ::munmap(mem, map_size_);
    throw std::bad_alloc{};
  }
  map_base_ = mem;
  usable_base_ = static_cast<char*>(mem) + ps;
}

Stack::~Stack() { release(); }

Stack::Stack(Stack&& other) noexcept
    : map_base_(std::exchange(other.map_base_, nullptr)),
      usable_base_(std::exchange(other.usable_base_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      usable_size_(std::exchange(other.usable_size_, 0)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    release();
    map_base_ = std::exchange(other.map_base_, nullptr);
    usable_base_ = std::exchange(other.usable_base_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    usable_size_ = std::exchange(other.usable_size_, 0);
  }
  return *this;
}

void* Stack::top() const noexcept {
  auto addr = reinterpret_cast<std::uintptr_t>(usable_base_) + usable_size_;
  addr &= ~std::uintptr_t{15};  // 16-byte alignment for the SysV ABI
  return reinterpret_cast<void*>(addr);
}

void Stack::release() noexcept {
  if (map_base_ != nullptr) {
#ifdef IP_RT_ASAN
    // Dead frames leave redzones in the shadow; the next stack mapped at
    // this address must not inherit them.
    ASAN_UNPOISON_MEMORY_REGION(usable_base_, usable_size_);
#endif
    ::munmap(map_base_, map_size_);
    map_base_ = nullptr;
  }
}

}  // namespace infopipe::rt
