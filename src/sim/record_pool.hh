/**
 * @file
 * RecordPool: records that never move, recycled through a free list.
 *
 * The home of a parked continuation on a concurrent path (see
 * sim/callback.hh): a component acquires a record, moves the
 * caller's continuation and its own per-operation state into it,
 * and passes `[this, record]` down instead of capturing them. Once
 * warm, a round of operations allocates nothing.
 */

#ifndef MCNSIM_SIM_RECORD_POOL_HH
#define MCNSIM_SIM_RECORD_POOL_HH

#include <deque>
#include <vector>

namespace mcnsim::sim {

/** Pool of default-constructible @p T records at stable addresses. */
template <typename T>
class RecordPool
{
  public:
    /** A free record (made on first need); it holds whatever its
     *  last user left in it. */
    T *
    acquire()
    {
        if (free_.empty())
            return &all_.emplace_back();
        T *r = free_.back();
        free_.pop_back();
        return r;
    }

    /** Return @p r; its owner has already moved out what it needs. */
    void release(T *r) { free_.push_back(r); }

  private:
    std::deque<T> all_; ///< a deque: records never move
    std::vector<T *> free_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_RECORD_POOL_HH
