"""Calibration loops that put every timing on a fixed reference speed.

The speed of Python code on a small shared VM swings by 1.5x and more, in
phases from a fraction of a second to minutes, so raw wall times of two
runs of the same code are not comparable.  Right before and right after
each timed operation the benchmark's own process runs one of the fixed
loops below; the reported time is

    raw wall time * REFERENCE[kind] / mean(calibration before, after)

that is, the time the operation would have taken at the reference speed.
The loops import nothing from crystacc, and the cyclic garbage collector is
paused while they run.

* ``fraction`` does the kind of work the exact workloads do: products and
  sums of complex numbers with ``Fraction`` parts, held in small objects,
  over a working set of a few MB as in the assembly of a stacked system.
  (A 14x14 elimination with a working set of a few kB swung about 1.7x
  where the exact workloads swung 1.3x, so it over-corrected.)
* ``gather`` does the kind of work the cascade does: numpy fancy-index
  gathers and weighted sums over a quarter million complex nodes.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# Mean time of one pass of each loop on the reference machine (2-CPU x86
# VM, Python 3.11, numpy 2.4); see README.md.  They only fix the scale of
# the normalized times and are never re-measured.
REFERENCE = {"fraction": 0.200, "gather": 0.015}

# Passes per calibration around an operation, about 0.45 s each: the speed
# can change within a second, so a calibration averages over a stretch of
# time rather than sampling an instant.
OP_REPEATS = {"fraction": 2, "gather": 30}

_GATHER_N = 1 << 18


class _QC:
    """Complex rational, the shape of the exact scalars being timed."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def __sub__(self, other):
        return _QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _QC(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)


_VALUES = [_QC(Fraction(i % 11 - 5, 1 << (i % 5)), Fraction(i % 3 - 1, 3))
           for i in range(128)]


def _fraction_kernel() -> _QC:
    """Kronecker-style products of complex rationals: 128 rows of 256
    products (about 33k small objects, a few MB, as when a stacked system
    is assembled), then a strided sum over them."""
    rows = []
    for x in _VALUES:
        rows.append([x * y for y in _VALUES] * 2)
    acc = _QC(Fraction(0), Fraction(0))
    for row in rows:
        for y in row[::16]:
            acc = acc - y
    return acc


class _Gather:
    """Fixed gather data, built once per process outside the timed loop."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.data = (rng.standard_normal((_GATHER_N, 1))
                     + 1j * rng.standard_normal((_GATHER_N, 1)))
        self.index = [rng.integers(0, _GATHER_N, _GATHER_N) for _ in range(4)]
        self.weight = [rng.random(_GATHER_N) for _ in range(4)]

    def __call__(self) -> complex:
        out = None
        for flat, w in zip(self.index, self.weight):
            term = w[:, None] * self.data[flat]
            out = term if out is None else out + term
        return complex(out[0, 0])


class Calibrator:
    """Runs the calibration loop of one kind and keeps every reading."""

    def __init__(self, kind: str, repeats: int | None = None):
        if kind not in REFERENCE:
            raise ValueError(f"unknown calibration kind {kind!r}")
        self.kind = kind
        self.reference = REFERENCE[kind]
        self.repeats = repeats or OP_REPEATS[kind]
        self._kernel = _Gather() if kind == "gather" else _fraction_kernel
        self.readings: list[float] = []

    def measure(self) -> float:
        """Mean time of one pass over ``repeats`` passes, GC paused."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(self.repeats):
                self._kernel()
            value = (time.perf_counter() - t0) / self.repeats
        finally:
            if was_enabled:
                gc.enable()
        self.readings.append(value)
        return value

    def factor(self, before: float, after: float) -> float:
        """Multiplier from raw wall time to time at the reference speed."""
        return self.reference / ((before + after) / 2.0)
