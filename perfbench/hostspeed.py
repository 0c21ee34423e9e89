"""Host-speed correction for timings taken on a shared, noisy machine.

On the 2-vCPU VM the benchmark was defined on, the same work ran up to 1.7x
faster in some stretches of seconds to minutes than in others, with CPU
time following wall time: contention on the host, which nothing inside the
VM can observe directly. A fixed reference kernel made of the same kinds of
operations mdsearch spends its time in (masked comparisons over a small
support, ``np.add.at`` row sums, inverse-CDF draws scored in Python, and a
scalar Python loop) slows down in step with the sampler. Over 150 s that
included a fast stretch, 8 s window medians of sampler time varied by 1.68x
raw and by 1.07x after dividing by the reference's time. Over ten runs each,
the spread of ``samples_per_s`` fell from 0.12 to 0.05 of the median on
``sat20-chains`` and from 0.22 to 0.08 on ``presets``.

So the benchmark times the reference about every ``EVERY_S`` seconds
between samples and scales each sample's time by ``NOMINAL_S / t_ref``,
where ``t_ref`` is the median reference time within ``WINDOW_S`` of the
sample. Corrected figures are "milliseconds on a host where the reference
takes ``NOMINAL_S``". The reference is part of the benchmark and calls no
mdsearch code, so a change to mdsearch moves corrected figures by the same
share as raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 2e-3
EVERY_S = 0.05
WINDOW_S = 0.5
BURST = 20  # reference runs right before and after each set-up


class Reference:
    """Fixed inputs of the reference kernel, built once per run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.support = rng.integers(0, 2, size=(100, 20))
        self.weights = np.full(100, 0.01)
        rows = rng.random((20, 4))
        self.cdf = np.cumsum(rows / rows.sum(axis=1, keepdims=True), axis=1)
        self.uniforms = rng.random((4, 32, 20))

    def __call__(self) -> float:
        """About 2 ms of work on the defining VM; returns a checksum."""
        total = 0.0
        for k in range(6):  # posterior-like: consistent rows, per-position sums
            values = self.support[k].copy()
            values[k:] = 2
            observed = np.flatnonzero(values != 2)
            keep = np.all(self.support[:, observed] == values[observed], axis=1)
            sub, w = self.support[keep], self.weights[keep]
            rows = np.zeros((20, 2))
            for i in range(20):
                np.add.at(rows[i], sub[:, i], w)
            total += rows.sum()
        for u in self.uniforms:  # pool-like: draws scored one at a time
            draws = (self.cdf[None] <= u[:, :, None]).sum(axis=2)
            for d in draws:
                total += sum(a * b for a, b in zip((float(d.sum()), float(d.max())),
                                                   (1.0, 1.0)))
        for p in range(300):  # scalar loop, as in per-edit peeks
            for tok in range(4):
                total += (p * tok) % 7
        return total


class HostSpeed:
    """Reference timings taken during a run, stamped with when they ran."""

    def __init__(self):
        self.reference = Reference()
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        for _ in range(5):  # warm caches before any timing counts
            self.reference()

    def sample(self) -> None:
        # With the collector off, no collection of mdsearch's heap is charged
        # to the reference, so its time does not depend on the program.
        gc.disable()
        try:
            started = time.perf_counter()
            self.reference()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        self.stamps.append(started)
        self.seconds.append(elapsed)

    def maybe_sample(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= EVERY_S:
            self.sample()

    def burst(self) -> list[float]:
        first = len(self.seconds)
        for _ in range(BURST):
            self.sample()
        return self.seconds[first:]

    def slowdown(self, stamps) -> np.ndarray:
        """Reference time over ``NOMINAL_S`` around each of ``stamps``."""
        times = np.asarray(self.stamps)
        secs = np.asarray(self.seconds)
        stamps = np.asarray(stamps, dtype=np.float64)
        lo = np.searchsorted(times, stamps - WINDOW_S)
        hi = np.searchsorted(times, stamps + WINDOW_S)
        out = np.empty(len(stamps))
        for i, (a, b) in enumerate(zip(lo, hi)):
            if b <= a:  # no reference in the window: use the nearest one
                a = min(max(a - 1, 0), len(times) - 1)
                b = a + 1
            out[i] = np.median(secs[a:b]) / NOMINAL_S
        return out


def corrected_setup(raw: float, before: list[float], after: list[float]) -> float:
    """A set-up time scaled by the reference bursts run just before and after it."""
    return raw * NOMINAL_S / statistics.median(before + after)
