#!/usr/bin/env python3
"""Scripted smoke client for dmv_serve (stdio transport).

Drives the documented protocol end to end — open hdiff, drag the K
slider, re-drag the same values, check stats, shut down — and exits
nonzero on any protocol error, checksum instability, or unexpected
server exit code. CI runs this against a freshly built binary
(docs/serving.md describes the protocol being exercised).

The persistence flags turn it into the restart gate: run once with
--cache-dir and --checksum-file to populate a warm-start directory and
record the step checksums, then run again with --expect-disk-warm to
assert the second server serves the same checksums from disk without
re-simulating (docs/storage.md covers the cache-dir lifecycle).

--stats-file writes the session's counters (hits, misses, shared_hits,
evictions and the steps_* classes; no timings) as JSON, so two runs at
different DMV_NUM_THREADS settings can be compared byte for byte.

Usage: serve_smoke.py [path/to/dmv_serve] [--cache-dir DIR]
                      [--checksum-file PATH] [--expect-disk-warm]
                      [--stats-file PATH]
"""

import argparse
import json
import subprocess
import sys

DRAG = [6, 7, 8, 9, 8, 7]
# The session counters that must not depend on the worker count.
COUNTERS = ["hits", "misses", "shared_hits", "evictions", "steps_full_hit",
            "steps_symbolic", "steps_chunk_delta", "steps_cold"]


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Client:
    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.next_id = 0

    def call(self, method, **params):
        self.next_id += 1
        request = {"id": self.next_id, "method": method, "params": params}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail(f"server closed stdout while handling {method}")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as error:
            fail(f"unparseable response line {line!r}: {error}")
        if response.get("id") != self.next_id:
            fail(f"response id {response.get('id')} != request id {self.next_id}")
        if "error" in response:
            fail(f"{method} -> error {response['error']}")
        if "result" not in response:
            fail(f"{method} -> response without result: {response}")
        return response["result"]


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
    args = parser.parse_args()

    argv = [args.binary]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    client = Client(argv)

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

    first = []
    for value in DRAG:
        result = client.call("step", session="smoke", symbol="K", value=value)
        for field in ("checksum", "executions", "served_by", "movement_bytes"):
            if field not in result:
                fail(f"step response missing {field}: {result}")
        if args.expect_disk_warm and result["served_by"] == "compute":
            fail(
                f"first visit of K={value} was computed, not served from "
                f"the warm cache dir (served_by={result['served_by']!r})"
            )
        first.append(result["checksum"])

    # Re-dragging the same values must return bit-identical checksums,
    # all served from cache (the memoization contract over the wire).
    for value, expected in zip(DRAG, first):
        result = client.call("step", session="smoke", symbol="K", value=value)
        if result["checksum"] != expected:
            fail(
                f"checksum changed on revisit of K={value}: "
                f"{result['checksum']} != {expected}"
            )
        if result["served_by"] == "compute":
            fail(f"revisit of K={value} recomputed instead of hitting cache")

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
    if args.stats_file:
        missing = [name for name in COUNTERS if name not in session]
        if missing:
            fail(f"session stats lack {missing}: {session}")
        with open(args.stats_file, "w") as handle:
            json.dump({name: session[name] for name in COUNTERS}, handle,
                      indent=1)
            handle.write("\n")

    stopping = client.call("shutdown")
    if stopping.get("stopping") is not True:
        fail(f"shutdown did not acknowledge: {stopping}")
    client.proc.stdin.close()
    code = client.proc.wait(timeout=30)
    if code != 0:
        fail(f"dmv_serve exited with code {code}")

    # Cross-run checksum comparison: the disk-warm run must serve bytes
    # bit-identical to the run that populated the cache directory.
    if args.checksum_file:
        if args.expect_disk_warm:
            with open(args.checksum_file) as handle:
                recorded = json.load(handle)
            if recorded != first:
                fail(
                    f"disk-warm checksums diverge from the recording in "
                    f"{args.checksum_file}: {first} != {recorded}"
                )
        else:
            with open(args.checksum_file, "w") as handle:
                json.dump(first, handle)

    mode = "disk-warm" if args.expect_disk_warm else "cold"
    print(
        f"serve_smoke: OK ({len(DRAG)} {mode} + {len(DRAG)} warm steps, "
        f"{session.get('hits')} hits, {disk_hits} disk hits, clean shutdown)"
    )


if __name__ == "__main__":
    main()
