/**
 * @file
 * iperf implementation.
 */

#include "dist/iperf.hh"

namespace mcnsim::dist {

using sim::Task;
using sim::Tick;

double
IperfStats::gbps() const
{
    if (lastByteAt <= firstByteAt || bytesReceived == 0)
        return 0.0;
    double secs = sim::ticksToSeconds(lastByteAt - firstByteAt);
    return static_cast<double>(bytesReceived) * 8.0 / secs / 1e9;
}

namespace {

Task<void>
serveOne(net::NetStack &stack, net::TcpSocketPtr conn,
         std::shared_ptr<IperfStats> stats)
{
    while (true) {
        std::size_t n = co_await conn->recvDiscard(256 * 1024);
        if (n == 0)
            co_return; // client closed
        Tick now = stack.curTick();
        if (stats->firstByteAt == 0)
            stats->firstByteAt = now;
        stats->lastByteAt = now;
        stats->bytesReceived += n;
    }
}

} // namespace

Task<void>
iperfServer(net::NetStack &stack, std::uint16_t port,
            std::shared_ptr<IperfStats> stats)
{
    auto listener = net::tcpListen(stack, port);
    while (true) {
        auto conn = co_await listener->accept();
        stats->connections++;
        sim::spawnDetached(stack.eventQueue(),
                           serveOne(stack, conn, stats));
    }
}

Task<void>
iperfClient(net::NetStack &stack, net::SockAddr server, Tick until,
            std::size_t chunk_bytes)
{
    auto sock = co_await net::tcpConnect(stack, server);
    if (!sock)
        co_return;
    while (stack.curTick() < until) {
        // sendPattern returns 0 without advancing time once the
        // connection dies (e.g. aborted by a partition notice);
        // looping on it would spin forever at the same tick.
        if (co_await sock->sendPattern(chunk_bytes) == 0)
            break;
    }
    co_await sock->close();
}

} // namespace mcnsim::dist
