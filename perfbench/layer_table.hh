/**
 * @file
 * Event name -> layer table for mcnbench's traced runs. Layers are
 * named after the src/ modules. Every name the simulator schedules
 * must appear here; perfbench/test_layer_table.py fails when a traced
 * run of any workload shows a name the table does not classify.
 */

#ifndef MCNBENCH_LAYER_TABLE_HH
#define MCNBENCH_LAYER_TABLE_HH

#include <string>
#include <string_view>

namespace perfbench {

inline constexpr const char *unclassified = "unclassified";

struct LayerRow
{
    std::string_view event;
    const char *layer;
};

inline constexpr LayerRow layerTable[] = {
    // sim: coroutine plumbing and the default callback name.
    {"task-spawn", "sim"},
    {"task-delay", "sim"},
    {"cv-notify", "sim"},
    {"lambda", "sim"},
    // cpu: every software continuation runs inside a core slot.
    {"core.slot", "cpu"},
    // os
    {"hrtimer", "os"},
    // net
    {"tcp.timer", "net"},
    {"tcp.timewait", "net"},
    {"netstack.qdisc", "net"},
    {"icmp.pingTimeout", "net"},
    // netdev
    {"link.deliver", "netdev"},
    {"link.ctrl", "netdev"},
    {"link.reorder", "netdev"},
    {"loop.deliver", "netdev"},
    {"nic.pcie", "netdev"},
    {"nic.pcieRx", "netdev"},
    {"switch.ingress", "netdev"},
    {"switch.fwd", "netdev"},
    {"fabric.hello", "netdev"},
    {"fabric.unreach", "netdev"},
    // mcn
    {"alert.identify", "mcn"},
    {"mcn.hostWatchdog", "mcn"},
    {"mcn.rxWatchdog", "mcn"},
    {"mcn.f3retry", "mcn"},
    // mem
    {"refresh", "mem"},
    {"mem.mmio", "mem"},
    {"mem.sched", "mem"},
    {"mem.readDone", "mem"},
    {"bw.complete", "mem"},
};

/** Layer of profiled event @p name; "fault.*" events are the fault
 *  plan's (sim/fault), whichever component they fire in. */
inline const char *
layerOf(std::string_view name)
{
    for (const auto &row : layerTable)
        if (row.event == name)
            return row.layer;
    if (name.substr(0, 6) == "fault.")
        return "sim";
    return unclassified;
}

} // namespace perfbench

#endif // MCNBENCH_LAYER_TABLE_HH
