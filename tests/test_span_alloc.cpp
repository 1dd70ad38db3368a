// An untraced span must cost no heap allocation: ScopedSpan takes its name
// and attributes as views and builds strings only for a live tracer. This
// translation unit replaces the global allocation functions with counting
// wrappers around malloc/free, so it is its own test binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/obs/trace.hpp"

namespace {
std::size_t g_news = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace c4h::obs {
namespace {

TEST(Trace, UntracedSpanAllocatesNothing) {
  // Longer than any small-string buffer, so copying either would allocate.
  const std::string object = "crowd/object-0042";  // 17 characters
  ASSERT_EQ(object.size(), 17u);
  const std::size_t before = g_news;
  {
    ScopedSpan sp(Ctx{}, "vstore.fetch_process");  // 20 characters
    sp.attr("object", object);
    sp.attr("bytes", std::uint64_t{8u << 20});
    sp.set_error(object);
  }
  EXPECT_EQ(g_news - before, 0u);
}

}  // namespace
}  // namespace c4h::obs
