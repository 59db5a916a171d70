/**
 * @file
 * DRAM bank/rank state machines: open-row tracking and the timing
 * constraints that gate when the next column access to an address
 * can complete. The MemController drives these.
 */

#ifndef MCNSIM_MEM_DRAM_DEVICE_HH
#define MCNSIM_MEM_DRAM_DEVICE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/dram_timing.hh"
#include "mem/mem_types.hh"

namespace mcnsim::mem {

/** One DRAM bank: open row and earliest-next-command bookkeeping. */
class Bank
{
  public:
    static constexpr std::uint64_t noRow = ~0ull;

    std::uint64_t openRow() const { return openRow_; }
    bool rowOpen() const { return openRow_ != noRow; }

    /**
     * Earliest tick a column access to @p row could *start* if
     * issued now, given the bank's state at @p now, and whether it
     * is a row-buffer hit.
     */
    struct AccessPlan
    {
        Tick startAt;  ///< earliest column command time
        Tick actAt;    ///< earliest activate time (non-hit only)
        bool rowHit;
        bool rowMiss;  ///< conflicting row had to be precharged
    };

    AccessPlan plan(Tick now, std::uint64_t row,
                    const DramTiming &t) const;

    /**
     * Commit an access previously planned: update open row and
     * next-allowed times. @p col_at is the column command time;
     * @p act_at the activate time (ignored on a row hit).
     */
    void commit(Tick col_at, Tick act_at, std::uint64_t row,
                bool is_write, const DramTiming &t);

    /** Close the row and block the bank until @p until (refresh). */
    void block(Tick until);

  private:
    std::uint64_t openRow_ = noRow;
    Tick nextColumnAt_ = 0;  ///< earliest next column command
    Tick nextActAt_ = 0;     ///< earliest next activate
    Tick nextPreAt_ = 0;     ///< earliest next precharge
};

/** One rank: banks plus the tFAW activation window and refresh. */
class Rank
{
  public:
    Rank(std::uint32_t banks, const DramTiming &t);

    Bank &bank(std::uint32_t b) { return banks_[b]; }
    const Bank &bank(std::uint32_t b) const { return banks_[b]; }

    /** Earliest tick a new activate may issue under tRRD/tFAW. */
    Tick nextActivateAllowed(Tick now) const;

    /** Record an activate at @p at. */
    void recordActivate(Tick at);

    /** Perform a refresh starting at @p at: all banks blocked. */
    void refresh(Tick at);

    const DramTiming &timing() const { return timing_; }

  private:
    std::vector<Bank> banks_;
    std::deque<Tick> recentActs_; ///< activates inside tFAW window
    Tick lastActAt_ = 0;
    const DramTiming &timing_;
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_DRAM_DEVICE_HH
