/**
 * @file
 * Software cost model: how many core cycles each kernel/driver/stack
 * operation charges. These constants stand in for the instruction
 * streams a full-system simulator would execute; they are the
 * calibration surface of the whole reproduction and live in one
 * place on purpose. Defaults are calibrated so that the baseline
 * 10 GbE system and the MCN configurations land in the paper's
 * Table III / Fig. 8 ranges (see core/presets.cc and
 * EXPERIMENTS.md for the calibration notes).
 */

#ifndef MCNSIM_CPU_COST_MODEL_HH
#define MCNSIM_CPU_COST_MODEL_HH

#include <cstdint>

#include "sim/types.hh"

namespace mcnsim::cpu {

using sim::Cycles;

/** Per-operation cycle charges for simulated software. */
struct CostModel
{
    // --- System call / scheduling ---------------------------------
    Cycles syscallEntry = 600;      ///< user->kernel crossing
    Cycles contextSwitch = 1500;
    Cycles interruptEntry = 1000;   ///< HW IRQ entry + dispatch
    Cycles softirqSchedule = 250;   ///< raise + later dispatch
    Cycles taskletRun = 200;        ///< tasklet framework overhead
    Cycles hrtimerFire = 500;       ///< timer interrupt + handler

    // --- TCP/IP stack (per packet / per byte) ----------------------
    Cycles tcpTxPerPacket = 2200;   ///< segment build + IP + queue
    Cycles tcpRxPerPacket = 2600;   ///< demux + ack/seq processing
    Cycles icmpPerPacket = 900;
    Cycles ipForwardPerPacket = 1100; ///< routing + header rewrite
    double checksumPerByte = 0.5;   ///< software checksum
    double copyPerByte = 0.0625;    ///< cached memcpy: 16 B/cycle
    Cycles skbAlloc = 450;          ///< sk_buff alloc + init

    // --- Driver paths ----------------------------------------------
    Cycles nicDriverTx = 900;       ///< descriptor + doorbell
    Cycles nicDriverRxPerPacket = 1100; ///< ring clean + skb push
    // Calibrated to the paper's Table III: the MCN driver's
    // per-message costs exceed the NIC driver's because the CPU
    // manages the SRAM rings with uncached pointer accesses
    // (Driver-TX ~1.1 us at 3.4 GHz, Driver-RX ~2.3 us + per-byte).
    Cycles mcnDriverTx = 3700;      ///< T1-T3 pointer ops + fence
    Cycles mcnDriverRx = 4000;      ///< R1-R5 ring clean + skb push
    Cycles mcnPollPerDimm = 350;    ///< read tx-poll field + check
    Cycles dmaSetup = 500;          ///< program a DMA descriptor

    // --- Helpers ----------------------------------------------------
    Cycles
    checksum(std::uint64_t bytes) const
    {
        return static_cast<Cycles>(checksumPerByte *
                                   static_cast<double>(bytes));
    }

    Cycles
    copy(std::uint64_t bytes) const
    {
        return static_cast<Cycles>(copyPerByte *
                                   static_cast<double>(bytes)) + 1;
    }
};

} // namespace mcnsim::cpu

#endif // MCNSIM_CPU_COST_MODEL_HH
