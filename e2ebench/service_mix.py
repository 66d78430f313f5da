"""The ``service-mix`` workload: a closed loop against ``repro serve``.

Two client threads (one per core) in this process share one request
list and each sends its next request only when its previous one has
been answered.  A pass sends every distinct spec once, waits for all
answers, then sends the pass's repeats, which the result cache must
serve.  Graph names carry the run seed and the pass number, so every
pass solves afresh and the repeat share is the same in every pass.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import List, Optional

import check

CLIENTS = 2
WORKERS = 2
#: Share of a pass's distinct specs that are sent again as repeats.  A
#: chosen stress point, not observed traffic: it makes the result cache
#: serve a third of all requests, enough to move ``jobs_per_s``, while
#: solved requests stay the majority, so ``latency_p50_s`` remains the
#: latency of a solve (see NOTES.md).
REPEAT_SHARE = 0.5


@dataclass
class Reply:
    """One request's outcome as the client saw it."""

    iid: str
    repeat: bool
    latency_s: float
    http_status: int
    doc: dict
    failure: Optional[str]


def start_server(root: str, state_dir: str, log_path: str):
    """Start ``repro serve``; returns (process, port, start-to-ready s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--workers", str(WORKERS), "--port", "0", "--state-dir", state_dir,
    ]
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
        )
    try:
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "ready":
                ready_s = time.perf_counter() - start
                # Keep draining stdout so the server can never block on it.
                threading.Thread(
                    target=proc.stdout.read, daemon=True
                ).start()
                return proc, int(event["port"]), ready_s
    except BaseException:
        stop_server(proc)
        raise
    stop_server(proc)
    raise RuntimeError(f"repro serve exited before its ready line; see {log_path}")


class RssSampler:
    """Peak of the summed RSS of a process and all its descendants.

    ``repro serve`` runs each job in a worker subprocess while the
    server and the other workers stay alive, so no single process's
    peak shows their joint footprint.  A background thread reads
    ``VmRSS`` from ``/proc`` every :attr:`interval_s` and keeps the
    largest sum it has seen (KiB).
    """

    interval_s = 0.05

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid
        self.peak_kib = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._done.is_set():
            self.peak_kib = max(self.peak_kib, self.sample())
            self._done.wait(self.interval_s)

    def sample(self) -> int:
        """Summed VmRSS (KiB) of the root process and its descendants."""
        children: "dict[int, list[int]]" = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            # Fields after the parenthesised command: state, ppid, ...
            ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        total = 0
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            stack.extend(children.get(pid, ()))
            total += _vm_rss_kib(pid)
        return total


def _vm_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_server(proc) -> None:
    """SIGTERM (graceful drain), then wait; kill if it will not stop."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def post(port: int, body: dict, timeout: float = 150.0):
    """POST one solve request; returns (HTTP status, JSON document)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/solve",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        try:
            doc = json.loads(exc.read() or b"{}")
        except ValueError:
            doc = {}
        return exc.code, doc


def pass_requests(instances, seed: int, number: int):
    """(iid, body, ref, repeat) for one pass: distinct specs, then repeats."""
    distinct = []
    for inst, ref in instances:
        name = f"{inst.key}-s{seed}-p{number}"
        distinct.append((inst.iid, inst.request(name), ref, False))
    n_repeats = max(1, round(REPEAT_SHARE * len(distinct)))
    repeats = [(iid, body, ref, True) for iid, body, ref, _ in distinct[:n_repeats]]
    return distinct, repeats


def _closed_loop(port: int, requests, tracer) -> "List[Reply]":
    """Send ``requests`` from :data:`CLIENTS` threads, closed loop."""
    lock = threading.Lock()
    pending = list(reversed(requests))
    replies: "List[Reply]" = []
    errors: "List[BaseException]" = []

    def client() -> None:
        while True:
            with lock:
                if not pending or errors:
                    return
                iid, body, ref, repeat = pending.pop()
            start = time.perf_counter()
            try:
                status, doc = post(port, body)
                latency = time.perf_counter() - start
                failure = check.check_response(iid, status, doc, ref)
            except Exception as exc:  # re-raised in the calling thread
                with lock:
                    errors.append(exc)
                return
            with lock:
                replies.append(Reply(iid, repeat, latency, status, doc, failure))
                if tracer.enabled:
                    tracer.spans.append(
                        ["service.request", start, start + latency, -1, iid]
                    )

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return replies


def run_pass(port: int, instances, seed: int, number: int, tracer):
    """One pass; returns (pass wall seconds, replies)."""
    distinct, repeats = pass_requests(instances, seed, number)
    start = time.perf_counter()
    replies = _closed_loop(port, distinct, tracer)
    replies += _closed_loop(port, repeats, tracer)
    return time.perf_counter() - start, replies
