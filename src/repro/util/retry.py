"""Exponential backoff with deterministic jitter.

One retry policy shared by the two recovery paths that wait things
out: the simulated pipeline's crashed-worker retries
(:meth:`repro.core.pipeline.PipelineEngine._robust_compute`) and the
host supervisor's straggler watchdog
(:class:`repro.core.executor.threads.ThreadBackend`). Both need the
same shape — attempt ``i`` waits ``base * factor**i``, optionally
capped and jittered — and both need **replayable** delays: a fault
timeline must replay byte-identically from its seed, so the jitter is
a pure function of ``(seed, key, attempt)``, never of a global RNG or
the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def backoff_delay(
    attempt: int,
    base: float,
    factor: float = 2.0,
    max_delay: float | None = None,
    jitter: float = 0.0,
    seed: int = 0,
    key: int = 0,
) -> float:
    """Delay (seconds) before retry ``attempt`` (0-based).

    ``base * factor**attempt``, capped at ``max_delay`` when given,
    then stretched by a deterministic jitter drawn uniformly from
    ``[0, jitter]`` (as a *fraction* of the delay). The jitter stream
    is seeded from ``(seed, key, attempt)`` so identical inputs always
    produce identical delays — replayable chaos, not randomness.

    Args:
        attempt: 0-based retry ordinal.
        base: first retry's delay.
        factor: multiplicative growth per attempt.
        max_delay: optional cap applied before jitter.
        jitter: max fractional stretch (0 disables; 0.5 means up to
            +50%).
        seed: policy-level seed.
        key: per-call-site discriminator (e.g. task or worker id) so
            concurrent retriers don't thunder in lockstep.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    delay = base * factor**attempt
    if max_delay is not None:
        delay = min(delay, max_delay)
    if jitter > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence((int(seed), int(key), int(attempt)))
        )
        delay *= 1.0 + float(rng.uniform(0.0, jitter))
    return float(delay)


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded exponential-backoff schedule.

    Attributes:
        base: delay before the first retry.
        factor: multiplicative growth per attempt.
        max_attempts: retries after the initial try (0 = never retry).
        max_delay: optional per-attempt cap (pre-jitter).
        jitter: max fractional stretch per delay (deterministic; see
            :func:`backoff_delay`).
        seed: seed of the jitter stream.
    """

    base: float
    factor: float = 2.0
    max_attempts: int = 3
    max_delay: float | None = None
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be positive, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_attempts < 0:
            raise ValueError(
                f"max_attempts must be non-negative, got {self.max_attempts}"
            )
        if self.max_delay is not None and self.max_delay <= 0:
            raise ValueError(
                f"max_delay must be positive or None, got {self.max_delay}"
            )
        if self.jitter < 0:
            raise ValueError(
                f"jitter must be non-negative, got {self.jitter}"
            )

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        return backoff_delay(
            attempt,
            self.base,
            factor=self.factor,
            max_delay=self.max_delay,
            jitter=self.jitter,
            seed=self.seed,
            key=key,
        )

    def delays(self, key: int = 0) -> "list[float]":
        """Every delay of the schedule, in order."""
        return [self.delay(i, key=key) for i in range(self.max_attempts)]

    def total_delay(self, key: int = 0) -> float:
        """Summed wait across the whole schedule (give-up horizon)."""
        return float(sum(self.delays(key=key)))
