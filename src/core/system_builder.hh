/**
 * @file
 * Fully wired systems, the library's main entry points:
 *
 *  - McnSystem: one host with N MCN DIMMs spread across its memory
 *    channels (the MCN-enabled server of Figs. 3/9/11);
 *  - ClusterSystem: N conventional nodes joined by 10 GbE links and
 *    a top-of-rack switch (the scale-out baseline of Fig. 10);
 *  - ScaleUpSystem: a single conventional node with many cores (the
 *    scale-up baseline of Fig. 11).
 *
 * Each system assigns addresses, populates neighbour tables, and
 * exposes a uniform node()/stackOf() view so workloads run
 * unchanged on any of them -- the application-transparency claim.
 */

#ifndef MCNSIM_CORE_SYSTEM_BUILDER_HH
#define MCNSIM_CORE_SYSTEM_BUILDER_HH

#include <memory>
#include <vector>

#include "core/mcn_config.hh"
#include "core/presets.hh"
#include "mcn/host_driver.hh"
#include "mcn/mcn_dimm.hh"
#include "net/net_stack.hh"
#include "netdev/ethernet_switch.hh"
#include "netdev/nic.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"

namespace mcnsim::core {

/**
 * A uniform handle on "a node": its kernel and network stack plus
 * the address other nodes reach it at.
 */
struct NodeRef
{
    os::Kernel *kernel = nullptr;
    net::NetStack *stack = nullptr;
    net::Ipv4Addr addr;
};

/** Common interface of all built systems. */
class System
{
  public:
    virtual ~System() = default;

    virtual std::size_t nodeCount() const = 0;
    virtual NodeRef node(std::size_t i) = 0;
};

/** Parameters for an MCN-enabled server. */
struct McnSystemParams
{
    std::size_t numDimms = 8;
    McnConfig config;
    os::KernelParams host = hostKernelParams();
    /** Template for every DIMM (kernel preset may be overridden,
     *  e.g. the NIOS-II proof-of-concept). */
    os::KernelParams dimmKernel = mcnKernelParams();
    /** Third address octet: nodes live in 10.0.<subnet>.x (used
     *  by multi-server deployments to keep servers distinct). */
    std::uint8_t subnet = 0;
    /** Name prefix so several servers can share one simulation. */
    std::string namePrefix = "";
};

/** One host + N MCN DIMMs. Node 0 is the host, 1..N the DIMMs. */
class McnSystem : public System
{
  public:
    McnSystem(sim::Simulation &s, const McnSystemParams &params);

    std::size_t nodeCount() const override
    {
        return 1 + dimms_.size();
    }
    NodeRef node(std::size_t i) override;

    os::Kernel &host() { return *hostKernel_; }
    net::NetStack &hostStack() { return *hostStack_; }
    mcn::McnHostDriver &driver() { return *driver_; }
    mcn::McnDimm &dimm(std::size_t i) { return *dimms_[i]; }
    std::size_t dimmCount() const { return dimms_.size(); }

    net::Ipv4Addr hostAddr() const { return hostAddr_; }
    net::Ipv4Addr dimmAddr(std::size_t i) const;

    const McnSystemParams &params() const { return params_; }

  private:
    McnSystemParams params_;
    std::unique_ptr<os::Kernel> hostKernel_;
    std::unique_ptr<net::NetStack> hostStack_;
    std::unique_ptr<mcn::McnHostDriver> driver_;
    std::vector<std::unique_ptr<mcn::McnDimm>> dimms_;
    net::Ipv4Addr hostAddr_;
};

/** Parameters for the conventional scale-out cluster. */
struct ClusterSystemParams
{
    std::size_t numNodes = 2;
    os::KernelParams node = hostKernelParams();
    BaselineNetParams net;
};

/** N conventional nodes behind a top-of-rack switch. */
class ClusterSystem : public System
{
  public:
    ClusterSystem(sim::Simulation &s,
                  const ClusterSystemParams &params);

    std::size_t nodeCount() const override { return nodes_.size(); }
    NodeRef node(std::size_t i) override;

    netdev::Nic &nic(std::size_t i) { return *nodes_[i]->nic; }
    /** Node @p i's link to the ToR switch (fault injection). */
    netdev::EthernetLink &link(std::size_t i)
    {
        return *nodes_[i]->link;
    }
    net::Ipv4Addr addrOf(std::size_t i) const;

  private:
    struct Node
    {
        std::unique_ptr<os::Kernel> kernel;
        std::unique_ptr<net::NetStack> stack;
        std::unique_ptr<netdev::Nic> nic;
        std::unique_ptr<netdev::EthernetLink> link;
        net::Ipv4Addr addr;
    };

    ClusterSystemParams params_;
    std::unique_ptr<netdev::EthernetSwitch> switch_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

/** Multi-switch fabric shapes (FabricSystem). */
enum class FabricTopology {
    /** One leaf per rack, one uplink from each leaf to each spine. */
    LeafSpine,
    /** 2-level fat tree: ceil(nodesPerRack / spines) parallel
     *  uplinks from each leaf to each spine, i.e. one uplink per
     *  access port (full bisection) spread over the spines. */
    FatTree,
};

/** Parameters for a rack-scale multi-switch fabric. */
struct FabricSystemParams
{
    FabricTopology topology = FabricTopology::LeafSpine;
    std::size_t racks = 2;
    std::size_t nodesPerRack = 2;
    std::size_t spines = 2;
    os::KernelParams node = hostKernelParams();
    BaselineNetParams net;   ///< node-to-leaf access links
    BaselineNetParams trunk; ///< leaf-to-spine trunk links
    netdev::FabricParams fabric;
};

/**
 * Rack-scale cluster: racks x nodesPerRack conventional nodes, one
 * leaf switch per rack, @p spines spine switches, every switch in
 * fabric mode (ECMP + hello liveness, DESIGN.md §12). Node i =
 * rack (i / nodesPerRack), member (i % nodesPerRack). PDES: every
 * node and every switch gets its own shard; the access and trunk
 * link latencies are the lookahead edges.
 */
class FabricSystem : public System
{
  public:
    FabricSystem(sim::Simulation &s,
                 const FabricSystemParams &params);

    std::size_t nodeCount() const override
    {
        return params_.racks * params_.nodesPerRack;
    }
    NodeRef node(std::size_t i) override;

    netdev::EthernetSwitch &leaf(std::size_t r)
    {
        return *leaves_[r].sw;
    }
    netdev::EthernetSwitch &spine(std::size_t j)
    {
        return *spines_[j].sw;
    }
    std::size_t leafCount() const { return leaves_.size(); }
    std::size_t spineCount() const { return spines_.size(); }

    net::Ipv4Addr addrOf(std::size_t i) const;
    net::MacAddr macOf(std::size_t i) const;

    /** Parallel uplinks from each leaf to each spine. */
    std::size_t uplinksPerSpine() const { return upf_; }

    /** Leaf port range carrying uplinks:
     *  [nodesPerRack, nodesPerRack + spines * uplinksPerSpine). */
    std::size_t uplinkPortBase() const
    {
        return params_.nodesPerRack;
    }
    std::size_t uplinkPortCount() const
    {
        return params_.spines * upf_;
    }

    /** Longest node-to-node path, counted in PathTrace stamps:
     *  stack tx, source NIC driver and DMA-TX, access link, leaf,
     *  trunk, spine, trunk, remote leaf, access link, destination
     *  NIC DMA-RX and driver = 12 for cross-rack traffic
     *  (intra-rack is 8). A delivered packet with more stamps than
     *  this means a forwarding loop. */
    std::size_t diameterHops() const { return 12; }

    const FabricSystemParams &params() const { return params_; }

  private:
    struct Node
    {
        std::unique_ptr<os::Kernel> kernel;
        std::unique_ptr<net::NetStack> stack;
        std::unique_ptr<netdev::Nic> nic;
        std::unique_ptr<netdev::EthernetLink> link;
        net::Ipv4Addr addr;
        std::size_t shard = 0;
    };

    struct Switch
    {
        std::unique_ptr<netdev::EthernetSwitch> sw;
        std::size_t shard = 0;
    };

    void wireNotifier(netdev::EthernetSwitch &sw,
                      std::size_t sw_shard);

    FabricSystemParams params_;
    std::size_t upf_ = 1;
    std::vector<Switch> leaves_;
    std::vector<Switch> spines_;
    std::vector<std::unique_ptr<netdev::EthernetLink>> trunks_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

/** Parameters for a multi-server MCN deployment. */
struct McnMultiServerParams
{
    std::size_t numServers = 2;
    std::size_t dimmsPerServer = 2;
    McnConfig config;
    BaselineNetParams uplink; ///< host-to-host 10GbE fabric
};

/**
 * Several MCN-enabled servers whose hosts are joined by a
 * conventional 10GbE switch (Sec. III-B: traffic between MCN nodes
 * on different hosts crosses both memory channels and the NIC via
 * the hosts' forwarding engines + IP forwarding). Node indexing:
 * server s's host is node s*(1+D), its DIMMs follow.
 */
class McnMultiServer : public System
{
  public:
    McnMultiServer(sim::Simulation &s,
                   const McnMultiServerParams &params);

    std::size_t nodeCount() const override;
    NodeRef node(std::size_t i) override;

    McnSystem &server(std::size_t s) { return *servers_[s]; }

    /** Global node index of server @p s's DIMM @p d. */
    std::size_t
    dimmNode(std::size_t s, std::size_t d) const
    {
        return s * (1 + params_.dimmsPerServer) + 1 + d;
    }

  private:
    McnMultiServerParams params_;
    std::vector<std::unique_ptr<McnSystem>> servers_;
    std::vector<std::unique_ptr<netdev::Nic>> nics_;
    std::vector<std::unique_ptr<netdev::EthernetLink>> links_;
    std::unique_ptr<netdev::EthernetSwitch> switch_;
};

/** A single fat node (Fig. 11's scale-up baseline). */
class ScaleUpSystem : public System
{
  public:
    ScaleUpSystem(sim::Simulation &s, std::uint32_t cores,
                  std::uint32_t mem_channels = 2);

    std::size_t nodeCount() const override { return 1; }
    NodeRef node(std::size_t i) override;

    os::Kernel &kernel() { return *kernel_; }
    net::NetStack &stack() { return *stack_; }

  private:
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<net::NetStack> stack_;
    net::Ipv4Addr addr_;
};

} // namespace mcnsim::core

#endif // MCNSIM_CORE_SYSTEM_BUILDER_HH
