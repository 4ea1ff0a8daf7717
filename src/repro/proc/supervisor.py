"""Process supervision: spawn, monitor, and kill node processes.

Each :class:`NodeSpec` becomes one child process running
``python -m repro.net.server``. The readiness handshake is the child
printing ``READY <name> <host> <port>`` once its listener is bound —
children bind port 0 by default, so there are no port-allocation races;
a per-child reader thread parses the line and keeps a tail of recent
output for crash diagnostics.

Failure model: a child that exits (for any reason) is *down*. The
supervisor notices via ``poll()`` — on demand through
:meth:`Supervisor.ensure_up` / :meth:`down_nodes`, or continuously via
:meth:`monitor`, which invokes a callback with
:class:`~repro.errors.NodeDownError` per newly dead node. Crashed
nodes stay in the roster (their exit code and output tail are
retained); the cluster-level response — ejecting the node from the
projection — belongs to the CORFU reconfiguration protocol, not the
supervisor.

All wall-clock waiting goes through
:class:`~repro.net.clock.MonotonicClock`: supervision is operational
machinery, never replayed state.
"""

from __future__ import annotations

import os
import signal
import socket as _socket
import subprocess
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NodeDownError
from repro.net.clock import MonotonicClock
from repro.net.socket import SocketTransport
from repro.net.wire import FramedSocket, decode_value, recv_frame, send_frame

#: Output lines retained per child for post-mortem diagnostics.
_OUTPUT_TAIL = 200


@dataclass(frozen=True)
class NodeSpec:
    """One node process to launch.

    ``kind`` selects what the server hosts (``storage`` or
    ``sequencer``); ``port`` 0 lets the OS pick and the READY handshake
    report it back.
    """

    name: str
    kind: str
    host: str = "127.0.0.1"
    port: int = 0
    k: int = 4
    #: Storage nodes only: host segmented durable storage under this
    #: directory (``--data-dir``); None keeps the node in-memory.
    data_dir: Optional[str] = None
    #: Background compaction sweep interval for durable storage nodes
    #: (seconds; 0 leaves compaction RPC-triggered only).
    compact_interval: float = 0.0


def cluster_specs(
    num_sets: int,
    replication_factor: int,
    sequencer: str = "seq-0",
    standby_sequencers: int = 0,
    host: str = "127.0.0.1",
    k: int = 4,
    data_dir: Optional[str] = None,
    compact_interval: float = 0.0,
) -> List[NodeSpec]:
    """Specs for the standard NxR layout plus its sequencer(s).

    Names match :func:`repro.corfu.layout.build_projection` exactly
    (``flash-{set}-{replica}``, sequencer ``seq-0``). Standby
    sequencers are named ``seq-1`` .. ``seq-N`` — the names
    :func:`repro.corfu.reconfig.replace_sequencer` reaches for on
    failover (``seq-{epoch+1}``), so launching one standby makes the
    first sequencer failover work over the wire.
    """
    specs = [
        NodeSpec(
            name=f"flash-{i}-{j}",
            kind="storage",
            host=host,
            k=k,
            data_dir=data_dir,
            compact_interval=compact_interval,
        )
        for i in range(num_sets)
        for j in range(replication_factor)
    ]
    specs.append(NodeSpec(name=sequencer, kind="sequencer", host=host, k=k))
    specs.extend(
        NodeSpec(name=f"seq-{n}", kind="sequencer", host=host, k=k)
        for n in range(1, standby_sequencers + 1)
    )
    return specs


class _Handle:
    """Supervisor-internal state for one child process."""

    def __init__(self, spec: NodeSpec, process: subprocess.Popen) -> None:
        self.spec = spec
        self.process = process
        self.address: Optional[Tuple[str, int]] = None
        self.ready = threading.Event()
        self.output: Deque[str] = deque(maxlen=_OUTPUT_TAIL)
        self.reader: Optional[threading.Thread] = None


class Supervisor:
    """Spawn and supervise one server process per :class:`NodeSpec`."""

    def __init__(
        self,
        specs: List[NodeSpec],
        python: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        ready_timeout: float = 15.0,
    ) -> None:
        self._specs = list(specs)
        names = [s.name for s in self._specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in specs: {names}")
        self._python = python if python is not None else sys.executable
        self._env = env
        self._ready_timeout = ready_timeout
        self._clock = MonotonicClock()
        self._handles: Dict[str, _Handle] = {}
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Supervisor":
        """Launch every child and wait for all READY handshakes."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        try:
            for spec in self._specs:
                self._handles[spec.name] = self._spawn(spec)
            deadline = self._clock.now() + self._ready_timeout
            for handle in self._handles.values():
                budget = deadline - self._clock.now()
                if budget <= 0 or not handle.ready.wait(budget):
                    raise RuntimeError(
                        f"node {handle.spec.name} did not become ready "
                        f"within {self._ready_timeout}s; last output: "
                        f"{list(handle.output)[-5:]}"
                    )
        except BaseException:
            self.stop()
            raise
        return self

    def _spawn(self, spec: NodeSpec) -> _Handle:
        env = dict(os.environ if self._env is None else self._env)
        # Children must import repro from this checkout even when it is
        # not installed: prepend the package parent to PYTHONPATH.
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not prior else src_dir + os.pathsep + prior
        )
        argv = [
            self._python,
            "-m",
            "repro.net.server",
            "--name",
            spec.name,
            "--kind",
            spec.kind,
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            "--k",
            str(spec.k),
        ]
        if spec.data_dir is not None and spec.kind == "storage":
            argv += ["--data-dir", spec.data_dir]
            if spec.compact_interval > 0:
                argv += ["--compact-interval", str(spec.compact_interval)]
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        handle = _Handle(spec, process)
        handle.reader = threading.Thread(
            target=self._read_output,
            args=(handle,),
            name=f"repro-proc-{spec.name}",
            daemon=True,
        )
        handle.reader.start()
        return handle

    def _read_output(self, handle: _Handle) -> None:
        stdout = handle.process.stdout
        assert stdout is not None
        for line in stdout:
            line = line.rstrip("\n")
            handle.output.append(line)
            if line.startswith("READY ") and not handle.ready.is_set():
                parts = line.split()
                if len(parts) == 4 and parts[1] == handle.spec.name:
                    handle.address = (parts[2], int(parts[3]))
                    handle.ready.set()
        # EOF: the child exited; wake any start() waiting on readiness
        # (it will see the dead process via ensure_up/down_nodes).
        handle.ready.set()

    def stop(self, timeout: float = 5.0) -> Dict[str, Optional[int]]:
        """Tear the fleet down; returns exit codes by node name.

        Escalation per child: graceful ``shutdown`` RPC, then SIGTERM,
        then SIGKILL. Reader threads are joined so no output is lost.
        """
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
            self._monitor_thread = None
        for handle in self._handles.values():
            if handle.process.poll() is None and handle.address is not None:
                self._best_effort_shutdown(handle)
        deadline = self._clock.now() + timeout
        for escalate in (signal.SIGTERM, signal.SIGKILL):
            if all(h.process.poll() is not None for h in self._handles.values()):
                break
            for handle in self._handles.values():
                if handle.process.poll() is None:
                    try:
                        budget = max(0.1, (deadline - self._clock.now()) / 2)
                        handle.process.wait(timeout=budget)
                    except subprocess.TimeoutExpired:
                        try:
                            handle.process.send_signal(escalate)
                        except (ProcessLookupError, OSError):
                            pass
        exit_codes: Dict[str, Optional[int]] = {}
        for name, handle in self._handles.items():
            try:
                exit_codes[name] = handle.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                exit_codes[name] = None
            if handle.reader is not None:
                handle.reader.join(timeout=2.0)
        return exit_codes

    def _best_effort_shutdown(self, handle: _Handle) -> None:
        """One shot at the graceful ``shutdown`` RPC; failures are fine."""
        assert handle.address is not None
        try:
            with FramedSocket(
                _socket.create_connection(handle.address, timeout=1.0)
            ) as conn:
                conn.settimeout(1.0)
                send_frame(
                    conn,
                    {
                        "id": "supervisor#shutdown",
                        "source": "supervisor",
                        "target": handle.spec.name,
                        "op": "shutdown",
                        "args": [],
                        "kwargs": {},
                    },
                )
                recv_frame(conn)
        except (OSError, ValueError):
            pass

    def __enter__(self) -> "Supervisor":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- addressing / transports --------------------------------------------

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        """Name → (host, port) for every ready node."""
        out: Dict[str, Tuple[str, int]] = {}
        for name, handle in self._handles.items():
            addr = handle.address
            if addr is not None:
                out[name] = addr
        return out

    def transport(self, timeout: float = 2.0) -> SocketTransport:
        """A fresh :class:`SocketTransport` wired to this fleet."""
        return SocketTransport(addresses=self.addresses(), timeout=timeout)

    # -- health --------------------------------------------------------------

    def alive(self, name: str) -> bool:
        """True while the child process for *name* is running."""
        return self._handles[name].process.poll() is None

    def ping(self, name: str) -> Dict[str, object]:
        """Health-check one node over the wire; returns its ping info."""
        handle = self._handles[name]
        if handle.address is None or handle.process.poll() is not None:
            raise NodeDownError(name)
        try:
            with FramedSocket(
                _socket.create_connection(handle.address, timeout=1.0)
            ) as conn:
                conn.settimeout(1.0)
                send_frame(
                    conn,
                    {
                        "id": "supervisor#ping",
                        "source": "supervisor",
                        "target": name,
                        "op": "ping",
                        "args": [],
                        "kwargs": {},
                    },
                )
                response = recv_frame(conn)
        except (OSError, ValueError):
            raise NodeDownError(name) from None
        if response is None or "ok" not in response:
            raise NodeDownError(name)
        return decode_value(response["ok"])

    def down_nodes(self) -> List[str]:
        """Names of children that have exited."""
        return [
            name
            for name, handle in self._handles.items()
            if handle.process.poll() is not None
        ]

    def ensure_up(self) -> None:
        """Raise :class:`~repro.errors.NodeDownError` for the first dead node."""
        for name in self.down_nodes():
            raise NodeDownError(name)

    def monitor(
        self,
        on_down: Callable[[NodeDownError], None],
        interval: float = 0.25,
    ) -> None:
        """Poll children on a daemon thread; report each death once."""
        if self._monitor_thread is not None:
            raise RuntimeError("monitor already running")

        def watch() -> None:
            reported: set = set()
            while not self._monitor_stop.wait(interval):
                for name in self.down_nodes():
                    if name not in reported:
                        reported.add(name)
                        on_down(NodeDownError(name))

        self._monitor_thread = threading.Thread(
            target=watch, name="repro-proc-monitor", daemon=True
        )
        self._monitor_thread.start()

    # -- faults --------------------------------------------------------------

    def kill(self, name: str, sig: int = signal.SIGKILL) -> None:
        """Kill one node process (the SIGKILL failover drill)."""
        handle = self._handles[name]
        try:
            handle.process.send_signal(sig)
        except (ProcessLookupError, OSError):  # pragma: no cover - racing exit
            pass
        try:
            handle.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass

    def output_tail(self, name: str) -> List[str]:
        """Recent stdout/stderr lines from one child (diagnostics)."""
        return list(self._handles[name].output)
