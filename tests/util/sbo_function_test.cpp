// Unit tests for the small-buffer-optimized callable that carries simulator
// actions: inline storage for hot-path closures, heap fallback for oversized
// ones, move-only ownership, in-place emplace, and destruction exactly once.
#include "util/sbo_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

namespace gangcomm::util {
namespace {

using Fn = SboFunction<int(int), 48>;

TEST(SboFunction, EmptyByDefault) {
  Fn f;
  EXPECT_FALSE(static_cast<bool>(f));
  Fn g(nullptr);
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(SboFunction, InvokesInlineCallable) {
  int base = 10;
  Fn f([&base](int x) { return base + x; });
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(5), 15);
}

TEST(SboFunction, InvokesHeapCallable) {
  std::array<int, 64> big{};  // 256 bytes: beyond the 48-byte inline buffer
  big[63] = 7;
  Fn f([big](int x) { return big[63] + x; });
  EXPECT_EQ(f(1), 8);
}

TEST(SboFunction, MoveTransfersOwnershipInline) {
  int calls = 0;
  Fn f([&calls](int x) {
    ++calls;
    return x;
  });
  Fn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT: post-move state is defined
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(3), 3);
  EXPECT_EQ(calls, 1);
}

TEST(SboFunction, MoveTransfersOwnershipHeap) {
  std::array<int, 64> big{};
  big[0] = 42;
  Fn f([big](int) { return big[0]; });
  Fn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT: post-move state is defined
  EXPECT_EQ(g(0), 42);
}

TEST(SboFunction, MoveAssignReleasesPrevious) {
  auto counter = std::make_shared<int>(0);
  Fn f([counter](int) { return *counter; });
  EXPECT_EQ(counter.use_count(), 2);
  f = Fn([](int x) { return x; });
  EXPECT_EQ(counter.use_count(), 1);  // old callable destroyed
  EXPECT_EQ(f(9), 9);
}

TEST(SboFunction, ResetDestroysCapture) {
  auto counter = std::make_shared<int>(0);
  SboFunction<void()> f([counter] {});
  EXPECT_EQ(counter.use_count(), 2);
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(SboFunction, DestructorReleasesHeapCallable) {
  auto counter = std::make_shared<int>(0);
  {
    std::array<std::shared_ptr<int>, 16> pad;
    pad[0] = counter;
    Fn f([pad](int) { return 0; });  // oversized: heap-held
    EXPECT_GE(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

// Counts the destructions of live instances (moved-from ones do not count)
// and the moves made, so tests can tell "destroyed exactly once" and "never
// relocated" apart from moves the compiler happens to make.
struct Tracked {
  int* destroyed;
  int* moves;
  Tracked(int* d, int* m) : destroyed(d), moves(m) {}
  Tracked(Tracked&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)), moves(o.moves) {
    ++*moves;
  }
  ~Tracked() {
    if (destroyed != nullptr) ++*destroyed;
  }
  int operator()(int x) const { return x + 1; }
};

// Same, but too big for Fn's 48-byte inline buffer: held on the heap.
struct BigTracked : Tracked {
  using Tracked::Tracked;
  std::array<int, 64> pad{};
};

TEST(SboFunction, EmplaceConstructsInlineCallableWithoutRelocating) {
  int destroyed = 0, moves = 0;
  Fn f;
  f.emplace(Tracked(&destroyed, &moves));
  EXPECT_EQ(moves, 1);  // built from the argument; no second relocation
  EXPECT_EQ(f(1), 2);
  f.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(SboFunction, EmplaceDestroysPreviousCallableExactlyOnce) {
  int old_inline = 0, old_heap = 0, moves = 0;
  Fn f(Tracked(&old_inline, &moves));
  f.emplace(BigTracked(&old_heap, &moves));  // inline -> heap fallback
  EXPECT_EQ(old_inline, 1);
  EXPECT_EQ(f(4), 5);
  f.emplace([](int x) { return 2 * x; });  // heap -> inline
  EXPECT_EQ(old_heap, 1);
  EXPECT_EQ(f(4), 8);
  EXPECT_EQ(old_inline, 1);  // nothing destroyed twice
}

TEST(SboFunction, EmplaceIntoEmptyHeapFallback) {
  int destroyed = 0, moves = 0;
  {
    Fn f;
    f.emplace(BigTracked(&destroyed, &moves));
    EXPECT_EQ(f(0), 1);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(SboFunction, EmplaceMovesInAnotherSboFunction) {
  int prev = 0, held = 0, moves = 0;
  Fn f(Tracked(&prev, &moves));
  Fn g(BigTracked(&held, &moves));
  f.emplace(std::move(g));
  EXPECT_FALSE(static_cast<bool>(g));  // NOLINT: post-move state is defined
  EXPECT_EQ(prev, 1);
  EXPECT_EQ(f(6), 7);
  f.reset();
  EXPECT_EQ(held, 1);
}

TEST(SboFunctionDeath, CallingEmptyAborts) {
  SboFunction<void()> f;
  EXPECT_DEATH(f(), "empty SboFunction");
}

}  // namespace
}  // namespace gangcomm::util
