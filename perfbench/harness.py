"""Shared plumbing of the benchmark: statistics, processes, HTTP load.

Everything here drives the program from outside: ``repro serve`` runs
as its own process and is reached over real HTTP, and process-level
resources (CPU time, peak RSS) are read from ``/proc``.  Nothing in
this module imports the program.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: ``PERFBENCH_PROFILE=smoke`` shrinks every workload's scale (galleries,
#: subjects, warm-up) so the benchmark's own tests run in seconds.  The
#: metrics keep their names and units; their values are not comparable.
SMOKE = os.environ.get("PERFBENCH_PROFILE") == "smoke"

#: Clock ticks per second of ``/proc/<pid>/stat`` CPU fields.
_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Spans:
    """Wall seconds of the benchmark's own calls into each layer, summed
    per name (traced runs only)."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def timed(self, name: str, func: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self.totals[name] = (self.totals.get(name, 0.0)
                                 + time.perf_counter() - start)

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)


# ----------------------------------------------------------------------
# Environment and processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def drop_program_settings() -> None:
    """Remove the program's own knobs (``REPRO_*``) from this process's
    environment, so neither the benchmark nor any process it starts
    picks them up from the caller's shell."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]


def environment_record() -> dict:
    """Facts every result is recorded with."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process, from ``/proc/<pid>/stat``."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _die_with_parent() -> None:
    """Child-side ``prctl(PR_SET_PDEATHSIG, SIGTERM)``: a program process
    never outlives a benchmark that was killed outright."""
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def spawn(cmd: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a program process from the checkout root."""
    return subprocess.Popen(
        list(cmd), cwd=ROOT, env=child_env(), preexec_fn=_die_with_parent,
        **kwargs,
    )


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class ServerProcess:
    """One ``repro serve`` process on an ephemeral port.

    :meth:`start` returns the launch-to-ready time: from spawning the
    process until ``/v1/healthz`` answers 200, which covers imports,
    gallery reload, WAL replay and prefilter index restore.
    """

    def __init__(self, gallery_dir: Path, keyfile: Path, log_path: Path,
                 extra_args: Sequence[str] = ()) -> None:
        self.gallery_dir = gallery_dir
        self.keyfile = keyfile
        self.log_path = log_path
        self.extra_args = list(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        self.port = 0

    def start(self, timeout_s: float = 120.0) -> float:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--gallery-dir", str(self.gallery_dir),
            "--keys", str(self.keyfile),
            *self.extra_args,
        ]
        self._log = open(self.log_path, "ab")
        launched = time.perf_counter()
        self.proc = spawn(cmd, stdout=subprocess.PIPE, stderr=self._log)
        deadline = launched + timeout_s
        line = b""
        while b"listening on http://" not in line:
            line = self.proc.stdout.readline()
            if not line or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(
                    f"server did not start; see {self.log_path}"
                )
        address = line.split(b"http://", 1)[1].split()[0].decode()
        self.port = int(address.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while True:
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
        finally:
            conn.close()
        return time.perf_counter() - launched

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


def copy_tree(source: Path, target: Path) -> Path:
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(source, target)
    return target


# ----------------------------------------------------------------------
# HTTP load generation
# ----------------------------------------------------------------------
class Op:
    """One pre-encoded request and, once sent, its outcome."""

    __slots__ = ("kind", "path", "body", "request_id", "due", "sent",
                 "done", "status", "response", "meta")

    def __init__(self, kind: str, path: str, body: bytes, request_id: str,
                 meta=None) -> None:
        self.kind = kind
        self.path = path
        self.body = body
        self.request_id = request_id
        self.meta = meta
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.response = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """From due time (open loop) or send time (closed loop)."""
        return (self.done - (self.due or self.sent)) * 1000.0


class Client:
    """A keep-alive connection sending pre-encoded JSON bodies."""

    def __init__(self, port: int, api_key: str) -> None:
        self.port = port
        self.headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {api_key}",
        }
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def send(self, op: Op) -> None:
        headers = dict(self.headers, **{"X-Request-ID": op.request_id})
        op.sent = time.perf_counter()
        try:
            self.conn.request("POST", op.path, body=op.body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            op.done = time.perf_counter()
            op.status = response.status
            op.response = json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError):
            op.done = time.perf_counter()
            op.status = -1
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )

    def get(self, path: str) -> dict:
        self.conn.request("GET", path, headers=self.headers)
        response = self.conn.getresponse()
        raw = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return json.loads(raw)

    def close(self) -> None:
        self.conn.close()


def _drive(ops: Sequence[Op], clients: Sequence[Client],
           due_of: Optional[Callable[[int], float]]) -> float:
    """Send ``ops`` over ``clients`` (one thread each); returns wall s.

    With ``due_of`` the loop is open: op ``i`` is due at ``due_of(i)``
    and is sent then or, if every connection is busy, as soon as one
    frees up (the lateness is recorded).  Without it the loop is
    closed: each connection sends its next op when the last returns.
    """
    lock = threading.Lock()
    cursor = [0]

    def worker(client: Client) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(ops):
                return
            op = ops[index]
            if due_of is not None:
                op.due = due_of(index)
                delay = op.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            client.send(op)

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def open_loop(ops: Sequence[Op], clients: Sequence[Client],
              rate_per_s: float) -> float:
    t0 = time.perf_counter() + 0.05
    return _drive(ops, clients, lambda i: t0 + i / rate_per_s)


def closed_loop(ops: Sequence[Op], clients: Sequence[Client]) -> float:
    return _drive(ops, clients, None)


def read_reqlog(path: Path) -> Dict[str, dict]:
    """The server's request log keyed by request id."""
    entries: Dict[str, dict] = {}
    if path.exists():
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    record = json.loads(line)
                    entries[record["request_id"]] = record
    return entries
