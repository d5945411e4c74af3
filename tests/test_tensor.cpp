/**
 * @file
 * Unit tests for the tensor substrate: arena accounting / OOM, tensors,
 * and segment indices.
 */

#include <gtest/gtest.h>

#include "tensor/tensor.hpp"

namespace st = smoothe::tensor;

TEST(Arena, TracksUsage)
{
    st::Arena arena;
    {
        st::Tensor t(4, 8, &arena);
        EXPECT_EQ(arena.used(), 4 * 8 * sizeof(float));
    }
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_EQ(arena.peak(), 4 * 8 * sizeof(float));
}

TEST(Arena, ThrowsOnBudgetExceeded)
{
    st::Arena arena(64);
    st::Tensor small(2, 4, &arena); // 32 bytes
    EXPECT_THROW(st::Tensor big(4, 4, &arena), st::OomError);
    EXPECT_EQ(arena.used(), 32u);
}

TEST(Arena, CopyAndMoveAccounting)
{
    st::Arena arena;
    st::Tensor a(2, 2, 1.0f, &arena);
    st::Tensor b = a; // copy doubles usage
    EXPECT_EQ(arena.used(), 2 * (2 * 2 * sizeof(float)));
    st::Tensor c = std::move(a); // move keeps usage
    EXPECT_EQ(arena.used(), 2 * (2 * 2 * sizeof(float)));
    b = std::move(c); // move-assign releases b's old buffer
    EXPECT_EQ(arena.used(), 2 * 2 * sizeof(float));
}

TEST(Tensor, FillAndSum)
{
    st::Tensor t(3, 5, 2.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 30.0);
    t.fill(0.5f);
    EXPECT_DOUBLE_EQ(t.sum(), 7.5);
    t.at(1, 2) = 10.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2), 10.0f);
    EXPECT_FLOAT_EQ(t.row(1)[2], 10.0f);
}

TEST(SegmentIndex, FromAssignment)
{
    // items 0..5 assigned to segments [1, 0, 1, 2, 0, 1].
    const std::vector<std::uint32_t> assignment = {1, 0, 1, 2, 0, 1};
    const auto index = st::SegmentIndex::fromAssignment(assignment, 3);
    EXPECT_EQ(index.numSegments(), 3u);
    EXPECT_EQ(index.segmentSize(0), 2u);
    EXPECT_EQ(index.segmentSize(1), 3u);
    EXPECT_EQ(index.segmentSize(2), 1u);
    // Every item appears exactly once.
    std::vector<std::uint32_t> items(index.items);
    std::sort(items.begin(), items.end());
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(items[i], i);
    // Items within a segment really belong to it.
    for (std::size_t s = 0; s < 3; ++s) {
        for (std::uint32_t e = index.offsets[s]; e < index.offsets[s + 1];
             ++e)
            EXPECT_EQ(assignment[index.items[e]], s);
    }
}

TEST(SegmentIndex, EmptySegments)
{
    const std::vector<std::uint32_t> assignment = {2, 2};
    const auto index = st::SegmentIndex::fromAssignment(assignment, 4);
    EXPECT_EQ(index.segmentSize(0), 0u);
    EXPECT_EQ(index.segmentSize(1), 0u);
    EXPECT_EQ(index.segmentSize(2), 2u);
    EXPECT_EQ(index.segmentSize(3), 0u);
}

TEST(Arena, TracksPeakAndBudget)
{
    st::Arena arena;
    {
        st::Tensor big(16, 16, &arena);
        EXPECT_EQ(arena.peak(), 16 * 16 * sizeof(float));
    }
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_EQ(arena.peak(), 16 * 16 * sizeof(float));
    arena.setBudget(8);
    EXPECT_THROW(st::Tensor t(2, 2, &arena), st::OomError);
    arena.setBudget(0); // unlimited again
    st::Tensor ok(64, 64, &arena);
    EXPECT_EQ(arena.used(), 64 * 64 * sizeof(float));
}

TEST(Tensor, MovedFromIsEmpty)
{
    st::Tensor a(2, 3, 1.0f);
    st::Tensor b = std::move(a);
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move): spec'd
    EXPECT_EQ(b.rows(), 2u);
    EXPECT_EQ(b.cols(), 3u);
    EXPECT_DOUBLE_EQ(b.sum(), 6.0);
}

TEST(Tensor, SelfAssignmentSafe)
{
    st::Arena arena;
    st::Tensor a(3, 3, 2.0f, &arena);
    a = a;
    EXPECT_DOUBLE_EQ(a.sum(), 18.0);
    EXPECT_EQ(arena.used(), 3 * 3 * sizeof(float));
}
