/**
 * @file
 * The socket transport front ends of the momsim CLI:
 *
 *   momsim serve   — long-lived daemon: SimRequest JSONL per
 *                    connection in, SimResponse JSONL out, over TCP
 *                    (loopback by default) and/or a unix-domain
 *                    socket, with one warm SimService (scheduler,
 *                    workload repos, optional persistent result
 *                    store) shared across all connections.
 *   momsim client  — line-streaming loopback client: stdin to the
 *                    server, responses to stdout. The test harness's
 *                    counterpart to serve, and a worked example of
 *                    the wire protocol.
 *   momsim loadgen — closed-loop load generator: K concurrent client
 *                    connections issuing sweep requests (with a
 *                    configurable cross-client overlap fraction) and
 *                    reporting points/s plus p50/p95 request latency.
 *
 * All take (argc, argv) past their subcommand token, batch-style.
 */

#ifndef MOMSIM_SVC_SERVE_MAIN_HH
#define MOMSIM_SVC_SERVE_MAIN_HH

namespace momsim::svc
{

int runServe(int argc, char **argv);
int runClient(int argc, char **argv);
int runLoadgen(int argc, char **argv);

} // namespace momsim::svc

#endif // MOMSIM_SVC_SERVE_MAIN_HH
