/**
 * @file
 * RingDeque: a FIFO that also takes pushes at the front, on one
 * growable power-of-two ring.
 *
 * std::deque frees and re-allocates a node every few hundred bytes of
 * push_back/pop_front traffic, so a queue that never holds more than
 * a handful of items still allocates in steady state. A RingDeque
 * allocates only when it grows past its largest size so far.
 */

#ifndef MCNSIM_SIM_RING_DEQUE_HH
#define MCNSIM_SIM_RING_DEQUE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace mcnsim::sim {

/** Double-ended queue of default-constructible @p T on a ring. */
template <typename T>
class RingDeque
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }

    template <typename U>
    void
    push_back(U &&v)
    {
        reserveOneMore();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::forward<U>(v);
        ++size_;
    }

    template <typename U>
    void
    push_front(U &&v)
    {
        reserveOneMore();
        head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
        buf_[head_] = std::forward<U>(v);
        ++size_;
    }

    /** Drop the front item; its storage is reset so whatever it
     *  owned is released now. */
    void
    pop_front()
    {
        buf_[head_] = T();
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

  private:
    void
    reserveOneMore()
    {
        if (size_ < buf_.size())
            return;
        std::vector<T> bigger(std::max<std::size_t>(8, 2 * buf_.size()));
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_; ///< capacity: zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_RING_DEQUE_HH
