#!/usr/bin/env python3
"""Loopback smoke test for `treeplace serve --listen` (the CI gate for the
async TCP front-end at the CLI level; the in-process coverage lives in
tests/serve/net_server_test.cc and bench/connection_churn.cc).

Starts the server on an ephemeral port, computes the reference output by
running the same binary in single-stream serve mode, then drives a few
hundred short-lived concurrent connections, each publishing a tree plus
three scenario deltas and asserting its bytes are ordered and
bit-identical (timings stripped) to the stream-mode reference.  Finally
SIGTERMs the server and asserts a graceful exit with a flushed summary.

Then, on a second server, a malformed-tail connection (the same records
followed by an unknown record header, sent in one write and again byte
by byte) must get the stream-mode results for every record before the
bad line, then a `# protocol error:` note carrying stream mode's error
message; that server must count both protocol errors and exit 2.

With --shards > 1 the server runs the sharded router and, after the main
connection sweep, the test SIGUSR1s the server to kill one shard and
asserts the survivors keep serving bit-identical results (one retry per
connection tolerates the drain window) and that the summary reports
exactly one killed shard.

Usage: tools/net_smoke.py [--binary build/treeplace] [--shards 1]
                          [--connections 200] [--concurrency 8]
"""

import argparse
import re
import signal
import socket
import subprocess
import sys
import threading
import time

# The serve-test topology: internal nodes 0/1/2/6, clients 3/4/5/7.
TREE = """treeplace-tree v1
I 0 -1 0 -1
I 1 0 0 -1
I 2 0 0 -1
C 3 1 5
C 4 1 3
C 5 2 4
I 6 2 0 -1
C 7 6 2
"""

# One connection's conversation: the tree plus three delta records.
STREAM = (
    TREE
    + "treeplace-scenario v1 1\nE 2\nE 6 0\n"
    + "treeplace-scenario v1 1\nZ\nR 3 7\n"
    + "treeplace-scenario v1 1\nE 2\nX 2\n"
)

# The same records followed by a record header no parser accepts.
MALFORMED = STREAM + "treeplace-frobnicate v1\nR 3 7\n"

SERVE_ARGS = ["serve", "--algo", "update-dp", "--modes", "10", "--cache", "64"]

TIMING_TOKEN = re.compile(r"\s+(?:queue_s|solve_s)=\S+")


def strip_timings(text: str) -> str:
    """Mirror of serve::strip_timings: drop queue_s=/solve_s= tokens."""
    return "".join(
        TIMING_TOKEN.sub("", line) + "\n" for line in text.splitlines()
    )


def stream_reference(binary: str, stream: str = STREAM) -> str:
    """Result lines StreamServer emits for `stream`, timings stripped; a
    stream error becomes the `# protocol error:` note net mode sends."""
    proc = subprocess.run(
        [binary] + SERVE_ARGS,
        input=stream.encode(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=stream == STREAM,
    )
    lines = proc.stdout.decode().splitlines()
    results = "".join(line + "\n" for line in lines if line.startswith("result "))
    prefix = "# serve: stream error: "
    for line in lines:
        if line.startswith(prefix):
            results += "# protocol error: " + line[len(prefix):] + "\n"
    return strip_timings(results)


def start_server(binary: str, serve_args: list):
    """Starts `serve --listen`; returns the process and its port (None if
    the first stdout line does not publish one)."""
    server = subprocess.Popen([binary] + serve_args, stdout=subprocess.PIPE)
    # The first stdout line publishes the resolved ephemeral port.
    line = server.stdout.readline().decode()
    match = re.match(r"# listen: 127\.0\.0\.1:(\d+)", line)
    if not match:
        print("smoke: expected '# listen:' line, got: %r" % line)
        return server, None
    return server, int(match.group(1))


def malformed_tail(port: int, reference: str, byte_by_byte: bool) -> str:
    """Sends MALFORMED on one connection; returns a failure or ''."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        if byte_by_byte:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(MALFORMED)):
                s.sendall(MALFORMED[i].encode())
        else:
            s.sendall(MALFORMED.encode())
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    received = strip_timings(b"".join(chunks).decode())
    if received == reference:
        return ""
    return "malformed tail (%s) differs from stdin:\n--- got ---\n%s" \
        "--- want ---\n%s" % (
            "byte by byte" if byte_by_byte else "one write",
            received,
            reference,
        )


def one_connection(
    port: int, reference: str, failures: list, lock, retries: int = 0
) -> None:
    # retries > 0 tolerates the shard-kill drain window: a connection the
    # router handed to the dying shard is closed unserved, and its retry
    # must land on a survivor.
    for attempt in range(retries + 1):
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=30
            ) as s:
                s.sendall(STREAM.encode())
                s.shutdown(socket.SHUT_WR)
                chunks = []
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            received = strip_timings(b"".join(chunks).decode())
            if received == reference:
                return
            error = "mismatch:\n--- got ---\n%s--- want ---\n%s" % (
                received,
                reference,
            )
        except OSError as err:
            error = "connection failed: %s" % err
        if attempt < retries:
            time.sleep(0.2)
    with lock:
        failures.append(error)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", default="build/treeplace")
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--connections", type=int, default=200)
    ap.add_argument("--concurrency", type=int, default=8)
    args = ap.parse_args()

    reference = stream_reference(args.binary)
    if "status=ok" not in reference:
        print("smoke: stream-mode reference has no ok results:\n" + reference)
        return 1
    malformed_reference = stream_reference(args.binary, MALFORMED)
    if "# protocol error: unknown record header" not in malformed_reference:
        print("smoke: stream mode did not reject the malformed tail:\n"
              + malformed_reference)
        return 1

    serve_args = SERVE_ARGS + ["--listen", "127.0.0.1:0"]
    if args.shards > 1:
        serve_args += ["--shards", str(args.shards)]
    server, port = start_server(args.binary, serve_args)
    try:
        if port is None:
            return 1

        failures: list = []
        lock = threading.Lock()
        remaining = args.connections
        while remaining > 0 and not failures:
            batch = min(args.concurrency, remaining)
            threads = [
                threading.Thread(
                    target=one_connection, args=(port, reference, failures, lock)
                )
                for _ in range(batch)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            remaining -= batch

        # Kill one shard between batches (no connections in flight) and
        # assert the survivors keep serving bit-identical results.
        kill_conns = 0
        if args.shards > 1 and not failures:
            server.send_signal(signal.SIGUSR1)
            time.sleep(0.5)  # let the shard drain and leave the ring
            remaining = kill_conns = 2 * args.concurrency
            while remaining > 0 and not failures:
                batch = min(args.concurrency, remaining)
                threads = [
                    threading.Thread(
                        target=one_connection,
                        args=(port, reference, failures, lock, 1),
                    )
                    for _ in range(batch)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                remaining -= batch
    finally:
        server.send_signal(signal.SIGTERM)
        tail = server.stdout.read().decode()
        code = server.wait(timeout=60)

    if failures:
        print("smoke: %d of %d connections diverged from stream mode"
              % (len(failures), args.connections))
        print(failures[0])
        return 1
    if code != 0:
        print("smoke: server exited %d after graceful drain\n%s" % (code, tail))
        return 1
    if "# serve:" not in tail:
        print("smoke: no summary block after SIGTERM drain:\n" + tail)
        return 1
    served = (args.connections + kill_conns) * 4  # 4 records per connection
    match = re.search(r"# serve: (\d+) requests", tail)
    if not match:
        print("smoke: no '# serve: N requests' line in summary:\n" + tail)
        return 1
    # Retried connections may leave extra requests behind on the drained
    # shard, so the aggregate is a floor, not an exact count.
    if int(match.group(1)) < served:
        print("smoke: summary reports %s requests, want >= %d:\n%s"
              % (match.group(1), served, tail))
        return 1
    if args.shards > 1:
        killed = sum(int(k) for k in re.findall(r" killed=(\d+)", tail))
        if killed != 1:
            print("smoke: summary reports %d killed shards, want 1:\n%s"
                  % (killed, tail))
            return 1
    # A malformed record after good ones: same results as stdin, then the
    # error, however the bytes are segmented.
    server, port = start_server(args.binary, serve_args)
    try:
        if port is None:
            return 1
        for byte_by_byte in (False, True):
            error = malformed_tail(port, malformed_reference, byte_by_byte)
            if error:
                print("smoke: " + error)
                return 1
    finally:
        server.send_signal(signal.SIGTERM)
        tail = server.stdout.read().decode()
        code = server.wait(timeout=60)
    if code != 2 or " protocol_errors=2 " not in tail:
        print("smoke: malformed-tail server exited %d, want 2 with "
              "protocol_errors=2:\n%s" % (code, tail))
        return 1

    print("smoke: %d connections (%d concurrent, %d shard%s), all "
          "bit-identical to stream mode; malformed tail matches stream "
          "mode; graceful drain ok"
          % (args.connections + kill_conns, args.concurrency, args.shards,
             "" if args.shards == 1 else "s"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
