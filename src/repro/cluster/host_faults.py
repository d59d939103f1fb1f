"""Deterministic chaos injection for the *host* execution path.

:mod:`repro.cluster.faults` scripts failures on the simulated
timeline; this module is its wall-clock twin for the thread backend.
A :class:`HostFaultInjector` carries a seeded schedule of injection
points that the backend consults at well-defined moments:

- **kill** (:class:`KillWorker`) — the ``T``-th task raises
  :class:`InjectedWorkerKill` at entry — before any shared state is
  touched — so the supervisor can re-run it safely.
- **delay** (:class:`DelayScan`) — straggler emulation: matching
  tasks run ``multiplier``x slower (the task is timed and the excess
  slept) or sleep a fixed ``seconds``. Exercises the scan-timeout
  watchdog and hedged re-issue.

Kills fire at task *boundaries* — never inside a lock or a
half-merged heap — so every schedule is replayable and the recovery
contract stays testable: coverage 1.0 results must be byte-identical
to the serial oracle no matter which schedule ran.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


class HostFaultError(RuntimeError):
    """Base class of injected host-path failures."""


class InjectedWorkerKill(HostFaultError):
    """A thread-backend task was chaos-killed at entry (retry-safe)."""


@dataclass(frozen=True)
class KillWorker:
    """Kill the ``at_task``-th task at entry.

    ``at_task`` counts tasks started since the injector was armed
    (0-based). Pool threads have no stable identity, so the ordinal
    counts all tasks globally; ``worker`` only keys the rule (one kill
    per distinct ``worker``).
    """

    worker: int
    at_task: int


@dataclass(frozen=True)
class DelayScan:
    """Slow matching scans down (straggler emulation).

    Attributes:
        multiplier: run matching tasks this many times slower (the
            task is timed, then ``(multiplier - 1) x elapsed`` is
            slept). Mirrors the sim schedule's straggler
            ``rate_multiplier``.
        seconds: alternatively, a fixed extra sleep per matching task.
        worker: restrict to one worker slot (None = any). Pool
            threads have no stable identity, so the thread backend
            applies the rule to the global task stream.
        every: apply to every ``every``-th matching task (1 = all).
    """

    multiplier: float = 1.0
    seconds: float = 0.0
    worker: "int | None" = None
    every: int = 1

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.seconds < 0:
            raise ValueError(
                f"seconds must be non-negative, got {self.seconds}"
            )
        if self.every <= 0:
            raise ValueError(f"every must be positive, got {self.every}")


@dataclass
class HostFaultCounters:
    """Recovery activity a host backend accumulated since last reset.

    Mirrors the ``harmony_*_total`` families the supervisor publishes:
    every counter here surfaces through
    ``ExecutionReport.fault_stats`` and ``repro.obs.report_metrics``.
    """

    tasks_requeued: int = 0
    scan_timeouts: int = 0
    abandoned_scans: int = 0

    @property
    def any_activity(self) -> bool:
        return bool(
            self.tasks_requeued
            or self.scan_timeouts
            or self.abandoned_scans
        )

    def take(self) -> "HostFaultCounters":
        """Snapshot-and-reset (per-search report accounting)."""
        out = HostFaultCounters(
            tasks_requeued=self.tasks_requeued,
            scan_timeouts=self.scan_timeouts,
            abandoned_scans=self.abandoned_scans,
        )
        self.tasks_requeued = 0
        self.scan_timeouts = 0
        self.abandoned_scans = 0
        return out


def sleep_for_delay(delay, elapsed: float) -> None:
    """Apply one chaos delay descriptor after a timed task body."""
    if delay is None:
        return
    multiplier, seconds = delay
    extra = max(0.0, (float(multiplier) - 1.0) * elapsed) + float(seconds)
    if extra > 0:
        time.sleep(extra)


class HostFaultInjector:
    """A seeded, replayable schedule of host-path fault injections.

    Attach to any host backend (``backend.chaos = injector`` or
    ``HarmonyDB.set_host_faults``); thread-safe — the thread backend's
    pool consults it concurrently.
    """

    def __init__(
        self,
        kills: "tuple[KillWorker, ...] | list[KillWorker]" = (),
        delays: "tuple[DelayScan, ...] | list[DelayScan]" = (),
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.delays = tuple(delays)
        self._kills: dict[int, int] = {}
        for kill in kills:
            at = int(kill.at_task)
            worker = int(kill.worker)
            self._kills[worker] = min(
                self._kills.get(worker, at), at
            )
        self._lock = threading.Lock()
        self._thread_ordinal = 0
        #: Injections that actually fired (for assertions in tests).
        self.fired: list[str] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def random(
        cls,
        n_workers: int,
        seed: int,
        p_kill: float = 0.7,
        p_delay: float = 0.7,
        max_kill_task: int = 6,
        max_delay_seconds: float = 0.01,
        max_multiplier: float = 4.0,
    ) -> "HostFaultInjector":
        """A random-but-replayable schedule (property-test driver)."""
        rng = np.random.default_rng(seed)
        kills = []
        if n_workers > 0 and rng.random() < p_kill:
            kills.append(
                KillWorker(
                    worker=int(rng.integers(0, n_workers)),
                    at_task=int(rng.integers(0, max_kill_task)),
                )
            )
        delays = []
        if rng.random() < p_delay:
            delays.append(
                DelayScan(
                    multiplier=float(rng.uniform(1.0, max_multiplier)),
                    seconds=float(rng.uniform(0.0, max_delay_seconds)),
                    worker=(
                        int(rng.integers(0, n_workers))
                        if n_workers > 0 and rng.random() < 0.5
                        else None
                    ),
                    every=int(rng.integers(1, 4)),
                )
            )
        return cls(kills=kills, delays=delays, seed=seed)

    # -- thread-backend side --------------------------------------------

    def thread_task_event(self):
        """Per-task event for the thread backend's global task stream.

        Returns ``(delay_descriptor | None, kill: bool)``; a kill is
        one-shot (the rule is consumed) and must be raised by the
        caller *before* touching shared state.
        """
        with self._lock:
            ordinal = self._thread_ordinal
            self._thread_ordinal += 1
            kill = False
            for worker, at_task in list(self._kills.items()):
                if ordinal >= at_task:
                    del self._kills[worker]
                    self.fired.append(f"kill:task={ordinal}")
                    kill = True
                    break
        delay = None
        for rule in self.delays:
            if (ordinal + 1) % rule.every == 0:
                delay = (rule.multiplier, rule.seconds)
                break
        return delay, kill

    def describe(self) -> dict:
        """JSON-safe summary (benchmark manifests)."""
        with self._lock:
            kills = dict(self._kills)
        return {
            "seed": self.seed,
            "kills": {str(k): int(v) for k, v in kills.items()},
            "delays": [
                {
                    "worker": rule.worker,
                    "every": rule.every,
                    "multiplier": rule.multiplier,
                    "seconds": rule.seconds,
                }
                for rule in self.delays
            ],
            "fired": list(self.fired),
        }
