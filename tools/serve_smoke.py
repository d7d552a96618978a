#!/usr/bin/env python3
"""Scripted smoke client for dmv_serve (stdio or TCP transport).

Drives every verb of the documented protocol end to end and exits
nonzero on any protocol error, checksum instability, or unexpected
server exit code. CI runs this against a freshly built binary
(docs/serving.md describes the protocol being exercised). The session:
  * open hdiff, drag the K slider counts-only, re-drag the same values
    (every revisit cached, checksums bit-identical), check stats;
  * subscribe to miss classification (8 lines) and element stats,
    drag again, re-drag from cache, then bind the drag's first binding;
  * edit the program to hdiff_reordered, step once, edit it back: the
    program hash must return to its first value, and re-dragging must
    serve the subscribed checksums without computing;
  * in a second session, drag conv2d's Cout with the same subscription:
    at least one step must be a chunk-delta step (the subscribed hdiff
    steps are cold, since K sizes every container).

The persistence flags turn it into the restart gate: run once with
--cache-dir and --checksum-file to populate a warm-start directory and
record the step checksums of both drags, then run again with
--expect-disk-warm to assert the second server serves the counts-only
drag from disk without re-simulating, and both drags with the recorded
checksums (docs/storage.md covers the cache-dir lifecycle). The
no-compute check covers only the counts-only drag, the one
`dmv_store warm --sweep K=5:9 --set I=8 --set J=8` fills ahead.

--stats-file writes the sessions' counters (hits, misses, shared_hits,
evictions and the steps_* classes; no timings) as JSON, so two runs at
different DMV_NUM_THREADS settings can be compared byte for byte: one
set after the counts-only drag, one at the end of the hdiff session
(`subscribe` restarts its counters) and one for the conv2d session.
Each set's steps_* classes must sum to the step requests sent to it:
one request is one step.

Then, in a third session, it opens copies of jacobi.json with one more
container each, whose shape or whose rows' range meets an integer
helper's limit (a quotient past int64, constant or symbolic, a power
with a huge exponent, and rows over P:Q with the bounds more than 2^63
apart; docs/symbolic.md), and steps each to the binding that evaluates
it, a P:Q program after subscribing to misses so that the simulator
runs its map. Every open must answer with a result, and every step
with a `bad_binding` error, except the empty P:Q map's, which must
answer with a result, each within HOSTILE_SECONDS. The server must
still answer a `stats` request afterwards.

A fourth session's name holds one character of the Basic Multilingual
Plane and one beyond it. It is opened with the name sent as `\\u`
escapes (the second one a surrogate pair), and a `stats` request that
names it in raw UTF-8 must get its stats. A line whose string holds a
lone high surrogate must get a `parse_error`, and the stream must keep
answering.

Both transports then get a request line one byte over the server's
64 MiB cap: it must be answered with a `request_too_large` error, a
`stats` request on the same stream must still answer, and the server's
counters must count the line as one more request and one more error.

--tcp starts `dmv_serve --port 0`, reads the bound port from its
listening line and runs the same session over a loopback connection,
which must survive a half-second pause and answer a 64 MiB request
line within 10 s. It then opens and closes one
warm-up and 20 more connections and fails if the server's VmSize
(/proc/<pid>/status) grew by a thread stack per connection over the
20: a finished connection's thread must be joined, not kept until
shutdown. Last, it sends `shutdown` over a new connection while the
session's connection stays open and idle; the server must exit anyway.

Usage: serve_smoke.py [path/to/dmv_serve] [--cache-dir DIR]
                      [--checksum-file PATH] [--expect-disk-warm]
                      [--stats-file PATH] [--tcp]
"""

import argparse
import copy
import json
import os
import re
import resource
import socket
import subprocess
import sys
import time

DRAG = [6, 7, 8, 9, 8, 7]
# The subscription of the second drag.
SUBSCRIPTION = {"miss_threshold_lines": 8, "element_stats": True}
# A drag the delta engine answers chunk by chunk. A K move on hdiff
# resizes every container, so each subscribed hdiff step runs cold.
# conv2d's one map runs its output channel outermost and the engine
# splits the trace along it, so growing Cout keeps the chunks of the
# channels already there.
CONV2D = {"Cin": 3, "Cout": 2, "Hh": 9, "W": 9, "Ky": 4, "Kx": 4}
COUT_DRAG = [3, 4, 3]
# The session counters that must not depend on the worker count.
COUNTERS = ["hits", "misses", "shared_hits", "evictions", "steps_full_hit",
            "steps_symbolic", "steps_chunk_delta", "steps_cold"]
# Connections the TCP mode opens and closes after the scripted session.
EXTRA_CONNECTIONS = 20
# The TCP mode's long request line, which is also the server's request
# line cap, and how long its reply may take (a linear scan answers in
# well under a second; one that rescans the line on every 4 KiB read
# took 8 s for half this size).
LONG_LINE_BYTES = 64 << 20
LONG_LINE_SECONDS = 10


# Inline programs whose one extra container's shape, or whose rows'
# range (jacobi.json's first map dimension; None keeps it), meets an
# integer helper's limit: the shape, its extra symbols, the rows' range,
# the open binding, the step binding and the step's error code (None
# wants a result). A pow that looped once per unit of the exponent would
# spend minutes on the third; rows whose end lies more than 2^63 below
# their begin run no point, and more than 2^63 above it, more points
# than int64 counts.
JACOBI = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "jacobi.json")
HOSTILE = [
    ("N + (-9223372036854775807 - 1) / -1", [], None, {"N": 4}, {"N": 5},
     "bad_binding"),
    ("P / Q", ["P", "Q"], None, {"N": 4, "P": 1, "Q": 1},
     {"N": 4, "P": -2**63, "Q": -1}, "bad_binding"),
    ("2**P", ["P"], None, {"N": 4, "P": 3}, {"N": 4, "P": 4 * 10**10},
     "bad_binding"),
    ("N", ["P", "Q"], "P:Q", {"N": 4, "P": 0, "Q": 3},
     {"N": 4, "P": 5 * 10**18, "Q": -5 * 10**18}, None),
    ("N", ["P", "Q"], "P:Q", {"N": 4, "P": 0, "Q": 3},
     {"N": 4, "P": -5 * 10**18, "Q": 5 * 10**18}, "bad_binding"),
]
HOSTILE_SECONDS = 5
# A session name with one BMP character and one that JSON escapes as a
# surrogate pair.
ESCAPED_SESSION = "smoke-\u00e9-\U0001f600"


# The dmv_serve process under test. The smoke stops it however it ends,
# since a TCP server would otherwise outlive it.
server = None


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Client:
    """One line-protocol conversation over a writer and a reader."""

    def __init__(self, writer, reader):
        self.writer = writer
        self.reader = reader
        self.next_id = 0

    def request(self, method, **params):
        """Sends one request and returns its response, error or not."""
        self.next_id += 1
        request = {"id": self.next_id, "method": method, "params": params}
        self.writer.write(json.dumps(request) + "\n")
        self.writer.flush()
        line = self.reader.readline()
        if not line:
            fail(f"server closed the stream while handling {method}")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as error:
            fail(f"unparseable response line {line!r}: {error}")
        if response.get("id") != self.next_id:
            fail(f"response id {response.get('id')} != request id {self.next_id}")
        return response

    def call(self, method, **params):
        response = self.request(method, **params)
        if "error" in response:
            fail(f"{method} -> error {response['error']}")
        if "result" not in response:
            fail(f"{method} -> response without result: {response}")
        return response["result"]


def connect(port):
    """A Client over a new loopback connection, and its stream: closing
    the stream closes the connection."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    stream = sock.makefile("rw", encoding="utf-8", newline="\n")
    sock.close()  # The stream holds the connection open.
    return Client(stream, stream), stream


def vm_size_kb(pid):
    with open(f"/proc/{pid}/status") as handle:
        match = re.search(r"^VmSize:\s+(\d+) kB", handle.read(), re.M)
    if not match:
        fail(f"no VmSize in /proc/{pid}/status")
    return int(match.group(1))


def stack_kb():
    """The stack a new thread maps: RLIMIT_STACK, or glibc's 8 MiB."""
    soft, _ = resource.getrlimit(resource.RLIMIT_STACK)
    if soft == resource.RLIM_INFINITY or soft <= 0:
        return 8 * 1024
    return soft // 1024


def open_and_close(port):
    """One short connection: a stats request, then close."""
    client, stream = connect(port)
    client.call("stats")
    stream.close()
    # Let the server see EOF before the next connection arrives.
    time.sleep(0.05)


def drag(client, values, revisit=None, computed_ok=True, session="smoke",
         symbol="K"):
    """Steps `symbol` through `values` and returns the checksums. With
    `revisit`, each step must return that step's checksum there, and
    no step may compute."""
    checksums = []
    for index, value in enumerate(values):
        result = client.call("step", session=session, symbol=symbol,
                             value=value)
        for field in ("checksum", "executions", "served_by", "movement_bytes"):
            if field not in result:
                fail(f"step response missing {field}: {result}")
        if revisit is not None and result["checksum"] != revisit[index]:
            fail(f"checksum changed on revisit of {symbol}={value}: "
                 f"{result['checksum']} != {revisit[index]}")
        if result["served_by"] == "compute" and not computed_ok:
            what = "first visit" if revisit is None else "revisit"
            fail(f"{what} of {symbol}={value} was computed, not served "
                 f"from cache")
        checksums.append(result["checksum"])
    return checksums


def session_counters(stats, steps_sent):
    """The session's worker-count-independent counters, after checking
    that its step classes count `steps_sent` steps."""
    session = stats.get("session", {})
    missing = [name for name in COUNTERS if name not in session]
    if missing:
        fail(f"session stats lack {missing}: {session}")
    steps = sum(session[name] for name in COUNTERS if name.startswith("steps_"))
    if steps != steps_sent:
        fail(f"{steps_sent} step requests counted as {steps} steps: {session}")
    return {name: session[name] for name in COUNTERS}


def check_long_line(stream):
    """Sends one 64 MiB request line; its parse_error reply must come
    in well under the time a rescan of the whole line per read takes."""
    started = time.monotonic()
    stream.write("x" * LONG_LINE_BYTES + "\n")
    stream.flush()
    line = stream.readline()
    elapsed = time.monotonic() - started
    if not line or json.loads(line).get("error", {}).get("code") != "parse_error":
        fail(f"a {LONG_LINE_BYTES >> 20} MiB line got {line[:200]!r}")
    if elapsed > LONG_LINE_SECONDS:
        fail(f"a {LONG_LINE_BYTES >> 20} MiB line took {elapsed:.1f} s "
             f"(limit {LONG_LINE_SECONDS} s)")


def check_hostile(client):
    """Opens and steps each HOSTILE program; returns the error count."""
    with open(JACOBI) as handle:
        jacobi = json.load(handle)
    for shape, symbols, rows, opened, stepped, step_error in HOSTILE:
        sdfg = copy.deepcopy(jacobi)
        sdfg["symbols"] += symbols
        if rows:
            sdfg["states"][0]["nodes"][0]["ranges"][0] = rows
        sdfg["containers"].append({"name": "hostile", "shape": [shape],
                                   "strides": ["1"], "element_size": 8,
                                   "transient": False})
        requests = [("open_program", {"sdfg": sdfg, "binding": opened}, None)]
        if rows:
            requests.append(("subscribe", SUBSCRIPTION, None))
        requests.append(("step", {"binding": stepped}, step_error))
        for method, params, want in requests:
            started = time.monotonic()
            response = client.request(method, session="hostile", **params)
            elapsed = time.monotonic() - started
            code = response.get("error", {}).get("code")
            if code != want or (want is None and "result" not in response):
                fail(f"{method} with rows {rows!r} and a container of "
                     f"shape {shape!r} got {response}, "
                     f"want {want or 'a result'}")
            if elapsed > HOSTILE_SECONDS:
                fail(f"{method} with rows {rows!r} and a container of "
                     f"shape {shape!r} took {elapsed:.1f} s "
                     f"(limit {HOSTILE_SECONDS} s)")
    client.call("stats", session="hostile")
    return sum(1 for *_, step_error in HOSTILE if step_error)


def send_raw(client, line):
    """Sends one request line as written and returns its response."""
    client.writer.write(line + "\n")
    client.writer.flush()
    reply = client.reader.readline()
    if not reply:
        fail(f"server closed the stream after {line!r}")
    return json.loads(reply)


def check_escaped_names(client):
    """Opens ESCAPED_SESSION with its name sent as \\u escapes, then
    asks for its stats by the raw UTF-8 name; a lone high surrogate must
    get a parse_error, and the stream must keep serving."""
    # json.dumps escapes every non-ASCII character by default.
    client.call("open_program", session=ESCAPED_SESSION, workload="hdiff",
                binding={"I": 8, "J": 8, "K": 5})
    request = {"id": 0, "method": "stats",
               "params": {"session": ESCAPED_SESSION}}
    raw = json.dumps(request, ensure_ascii=False)
    if "\\u" in raw:
        fail(f"the raw UTF-8 request still holds escapes: {raw!r}")
    stats = send_raw(client, raw)
    if "session" not in stats.get("result", {}):
        fail(f"stats for the session named in raw UTF-8 got {stats}")
    lone = send_raw(client, '{"id": 0, "method": "stats", "params": '
                            '{"session": "\\ud83d"}}')
    if lone.get("error", {}).get("code") != "parse_error":
        fail(f"a lone high surrogate got {lone}, want a parse_error")
    client.call("stats", session=ESCAPED_SESSION)


def check_over_cap_line(client):
    """Sends one request line a byte over the cap; it must get one
    request_too_large error, the stream must keep serving, and
    stats.server must count the line as a request and an error."""
    before = client.call("stats", session="smoke")["server"]
    client.writer.write("x" * (LONG_LINE_BYTES + 1) + "\n")
    client.writer.flush()
    line = client.reader.readline()
    if not line or json.loads(line).get("error", {}).get("code") != "request_too_large":
        fail(f"a line over the {LONG_LINE_BYTES >> 20} MiB cap got {line[:200]!r}")
    after = client.call("stats", session="smoke")["server"]
    # The second stats request counts itself too.
    if (after["requests"] != before["requests"] + 2
            or after["errors"] != before["errors"] + 1):
        fail(f"the over-cap line was not counted as one request and one "
             f"error: stats.server {before} -> {after}")


def check_connection_threads(pid, port):
    """Opens and closes EXTRA_CONNECTIONS connections, one at a time,
    and fails if the server kept a thread stack mapped for each."""
    # The first connection thread may map a stack and a malloc arena
    # that later ones reuse, so VmSize is read after one warm-up.
    open_and_close(port)
    time.sleep(0.5)
    before = vm_size_kb(pid)
    for _ in range(EXTRA_CONNECTIONS):
        open_and_close(port)
    time.sleep(0.5)
    grown = vm_size_kb(pid) - before
    limit = EXTRA_CONNECTIONS * stack_kb() // 2
    if grown >= limit:
        fail(
            f"VmSize grew {grown} kB over {EXTRA_CONNECTIONS} finished "
            f"connections (limit {limit} kB): their threads were not joined"
        )
    return grown


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", nargs="?", default="build/src/dmv_serve")
    parser.add_argument(
        "--cache-dir",
        help="pass through to dmv_serve --cache-dir (persistent warm-start tier)",
    )
    parser.add_argument(
        "--checksum-file",
        help="record step checksums here, or compare against a prior recording",
    )
    parser.add_argument(
        "--expect-disk-warm",
        action="store_true",
        help="require the cold drag to be served from the disk tier "
        "(a restarted server re-serving a prior run's artifacts)",
    )
    parser.add_argument(
        "--stats-file",
        help="write the session's counters (no timings) here as JSON",
    )
    parser.add_argument(
        "--tcp",
        action="store_true",
        help="serve over a loopback TCP connection (dmv_serve --port 0) "
        "and check that finished connections release their threads",
    )
    args = parser.parse_args()

    argv = [args.binary]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.tcp:
        argv += ["--port", "0"]
    global server
    server = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        encoding="utf-8",
    )
    if args.tcp:
        listening = server.stdout.readline()
        match = re.match(r"dmv_serve: listening on 127\.0\.0\.1:(\d+)$",
                         listening.strip())
        if not match or int(match.group(1)) == 0:
            fail(f"unexpected listening line {listening!r}")
        port = int(match.group(1))
        client, stream = connect(port)
    else:
        client = Client(server.stdin, server.stdout)

    opened = client.call(
        "open_program",
        session="smoke",
        workload="hdiff",
        binding={"I": 8, "J": 8, "K": 5},
    )
    if opened.get("program") != "hdiff":
        fail(f"open_program echoed program {opened.get('program')!r}")
    if sorted(opened.get("symbols", [])) != ["I", "J", "K"]:
        fail(f"unexpected symbols {opened.get('symbols')}")

    # Counts-only drag. Re-dragging the same values must return
    # bit-identical checksums, all served from cache (the memoization
    # contract over the wire).
    first = drag(client, DRAG, computed_ok=not args.expect_disk_warm)
    drag(client, DRAG, revisit=first, computed_ok=False)

    stats = client.call("stats", session="smoke")
    session = stats.get("session", {})
    if session.get("hits", 0) <= 0:
        fail(f"no cache hits after revisits: {session}")
    if stats.get("server", {}).get("errors", 1) != 0:
        fail(f"server counted errors during smoke: {stats.get('server')}")
    disk_hits = stats.get("shared_cache", {}).get("disk_hits", 0)
    if args.expect_disk_warm and disk_hits <= 0:
        fail(
            f"--expect-disk-warm but shared_cache.disk_hits == {disk_hits}: "
            f"the server re-simulated instead of warm-starting from "
            f"{args.cache_dir}"
        )
    counters = {"counts_only": session_counters(stats, 2 * len(DRAG))}

    # Subscribed drag: misses and element stats, so a moved K runs the
    # chunk-delta engine instead of the closed-form counter.
    subscribed = client.call("subscribe", session="smoke", **SUBSCRIPTION)
    for knob, value in SUBSCRIPTION.items():
        if subscribed.get(knob) != value:
            fail(f"subscribe echoed {knob}={subscribed.get(knob)!r}, "
                 f"want {value!r}")
    second = drag(client, DRAG)
    if second == first:
        fail(f"the subscribed drag has the counts-only checksums {first}")
    drag(client, DRAG, revisit=second, computed_ok=False)
    binding = {"I": 8, "J": 8, "K": DRAG[0]}
    bound = client.call("bind", session="smoke", binding=binding)
    if bound.get("binding") != binding:
        fail(f"bind echoed {bound.get('binding')}, want {binding}")

    # A program edit and its undo: the old version's artifacts stay
    # cached under its content hash.
    edited = client.call("edit_program", session="smoke",
                         workload="hdiff_reordered")
    if (edited.get("program") != "hdiff_reordered"
            or edited.get("program_hash") == opened["program_hash"]):
        fail(f"edit_program to hdiff_reordered answered {edited}")
    drag(client, DRAG[:1])
    restored = client.call("edit_program", session="smoke", workload="hdiff")
    if restored.get("program_hash") != opened["program_hash"]:
        fail(f"program_hash after editing back is "
             f"{restored.get('program_hash')}, first "
             f"{opened['program_hash']}")
    drag(client, DRAG, revisit=second, computed_ok=False)
    stats = client.call("stats", session="smoke")
    if stats.get("server", {}).get("errors", 1) != 0:
        fail(f"server counted errors during smoke: {stats.get('server')}")
    counters["subscribed"] = session_counters(stats, 3 * len(DRAG) + 1)

    client.call("open_program", session="delta", workload="conv2d",
                binding=CONV2D)
    client.call("subscribe", session="delta", **SUBSCRIPTION)
    deltas = drag(client, COUT_DRAG, session="delta", symbol="Cout")
    drag(client, COUT_DRAG, revisit=deltas, computed_ok=False,
         session="delta", symbol="Cout")
    stats = client.call("stats", session="delta")
    counters["chunk_delta"] = session_counters(stats, 2 * len(COUT_DRAG))
    # A warm cache dir serves this drag from disk instead.
    if (counters["chunk_delta"]["steps_chunk_delta"] <= 0
            and not args.expect_disk_warm):
        fail(f"the Cout drag ran no chunk-delta step: {stats['session']}")
    if args.stats_file:
        with open(args.stats_file, "w") as handle:
            json.dump(counters, handle, indent=1)
            handle.write("\n")

    hostile_errors = check_hostile(client)
    check_escaped_names(client)

    grown = None
    if args.tcp:
        # A client that pauses keeps its connection.
        time.sleep(0.5)
        client.call("stats", session="smoke")
        check_long_line(stream)
    check_over_cap_line(client)
    if args.tcp:
        grown = check_connection_threads(server.pid, port)
        # Shut down from a second connection; the first stays open.
        idle = stream
        client, stream = connect(port)
    stopping = client.call("shutdown")
    if stopping.get("stopping") is not True:
        fail(f"shutdown did not acknowledge: {stopping}")
    server.stdin.close()
    try:
        code = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        fail("dmv_serve did not exit within 30 s of shutdown")
    if args.tcp:
        stream.close()
        idle.close()
    if code != 0:
        fail(f"dmv_serve exited with code {code}")

    # Cross-run checksum comparison: the disk-warm run must serve bytes
    # bit-identical to the run that populated the cache directory.
    if args.checksum_file:
        checksums = {"counts_only": first, "subscribed": second}
        if args.expect_disk_warm:
            with open(args.checksum_file) as handle:
                recorded = json.load(handle)
            if recorded != checksums:
                fail(
                    f"disk-warm checksums diverge from the recording in "
                    f"{args.checksum_file}: {checksums} != {recorded}"
                )
        else:
            with open(args.checksum_file, "w") as handle:
                json.dump(checksums, handle)

    mode = "disk-warm" if args.expect_disk_warm else "cold"
    transport = "stdio" if grown is None else (
        f"tcp, VmSize +{grown} kB over {EXTRA_CONNECTIONS} more connections")
    print(
        f"serve_smoke: OK ({len(DRAG)} {mode} + {len(DRAG)} warm "
        f"counts-only steps, {session.get('hits')} hits, {disk_hits} disk "
        f"hits; {3 * len(DRAG) + 1} subscribed and edited steps; "
        f"{counters['chunk_delta']['steps_chunk_delta']} chunk-delta steps; "
        f"{hostile_errors} hostile steps refused; {transport}, clean "
        f"shutdown)"
    )


if __name__ == "__main__":
    try:
        main()
    finally:
        if server is not None and server.poll() is None:
            server.kill()
            server.wait()
