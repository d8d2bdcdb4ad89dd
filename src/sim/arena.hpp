/**
 * @file
 * Chunked arena for simulator objects that are allocated incrementally and
 * addressed by dense index.
 *
 * `std::vector<Line>` storage for the memory model had two costs at big
 * topologies: every growth realloc copies all existing lines (the structs
 * workloads allocate lines mid-run, so this happens while the simulation is
 * hot), and the copy invalidates any reference held across an alloc. The
 * arena allocates fixed-size chunks and never moves an element once placed:
 * growth is one chunk allocation, references are stable for the arena's
 * lifetime, and indexing is a shift/mask plus two dependent loads (the
 * chunk-pointer array is a few cache lines even at a million elements).
 *
 * A chunk is raw storage: emplace_back() constructs each element in place,
 * so a machine pays for the elements it uses, not for the chunk (a Fig 5
 * cell uses at most about 215 of its first chunk's 4096 lines; see
 * docs/performance.md, "Build and teardown at the cost of what a run
 * uses").
 */
#ifndef NUCALOCK_SIM_ARENA_HPP
#define NUCALOCK_SIM_ARENA_HPP

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace nucalock::sim {

/**
 * Index-addressed chunked arena. Elements are constructed by
 * emplace_back() and never move; @p kChunkPow is the log2 of the chunk
 * size in elements.
 */
template <typename T, std::size_t kChunkPow = 12>
class ChunkArena
{
  public:
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkPow;

    ChunkArena() = default;
    ChunkArena(const ChunkArena&) = delete;
    ChunkArena& operator=(const ChunkArena&) = delete;

    ~ChunkArena()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            for (std::size_t i = 0; i < size_; ++i)
                std::destroy_at(&slot(i));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T&
    operator[](std::size_t i)
    {
        NUCA_ASSERT(i < size_, "arena index ", i, " of ", size_);
        return slot(i);
    }

    const T&
    operator[](std::size_t i) const
    {
        NUCA_ASSERT(i < size_, "arena index ", i, " of ", size_);
        return slot(i);
    }

    /** Construct an element from @p args at the end; the returned
     *  reference never moves. */
    template <typename... Args>
    T&
    emplace_back(Args&&... args)
    {
        if (size_ == chunks_.size() * kChunkSize)
            chunks_.push_back(Chunk(std::allocator<T>{}.allocate(kChunkSize)));
        T& placed = *std::construct_at(&slot(size_), std::forward<Args>(args)...);
        ++size_;
        return placed;
    }

    /** Append a copy of @p value; the returned reference never moves. */
    T& push_back(const T& value) { return emplace_back(value); }

    /** Chunks currently allocated (tests). */
    std::size_t num_chunks() const { return chunks_.size(); }

  private:
    /** Returns a chunk's storage; its elements are destroyed already. */
    struct FreeChunk
    {
        void
        operator()(T* chunk) const noexcept
        {
            std::allocator<T>{}.deallocate(chunk, kChunkSize);
        }
    };
    using Chunk = std::unique_ptr<T, FreeChunk>;

    T&
    slot(std::size_t i) const
    {
        return chunks_[i >> kChunkPow].get()[i & (kChunkSize - 1)];
    }

    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_ARENA_HPP
