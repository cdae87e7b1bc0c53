"""Statistics, naming and environment helpers of the repository benchmark.

Nothing here imports :mod:`repro`, so the helpers are unit-testable without
the library on the path (see ``test_benchlib.py``).
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import re
import resource
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A metric name: a letter or digit, then at most 63 letters, digits, ``_ . -``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: 1 to 16 letters, digits, ``_ / % . -``.
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether *name* may name a workload or a metric."""
    return NAME_PATTERN.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """Whether *unit* is an allowed metric unit."""
    return UNIT_PATTERN.fullmatch(unit) is not None


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method; raises on no samples.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the *q*-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def supported_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile, or ``None`` when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it (too few to trust)."""
    if samples_beyond(len(samples), q) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, q)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Interval arithmetic for span self time
# ----------------------------------------------------------------------
def merge_intervals(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sorted, non-overlapping union of ``(start, end)`` intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    return sum(end - start for start, end in merge_intervals(intervals))


def intersection_length(
    first: Sequence[Tuple[float, float]], second: Sequence[Tuple[float, float]]
) -> float:
    """Length of the overlap of two unions of intervals."""
    a, b = merge_intervals(first), merge_intervals(second)
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    *spans* are ``(start, end, parent_index)`` triples (``-1`` for a root).
    Child intervals are clipped to the parent, and overlapping children
    (a parent waiting on parallel work) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
        ]
        result.append((end - start) - covered_length(clipped))
    return result


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info() -> Tuple[str, object]:
    import numpy as np

    vendor = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        pass
    threads: object = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads != "unknown":
            break
    return vendor, threads


def git_sha(root: Path) -> str:
    """The checked-out commit read from ``.git`` directly, else ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> Dict[str, object]:
    """What a result depends on besides the code: cores, BLAS, versions.

    BLAS threads are read, never set: the thread policy belongs to the
    program under test.
    """
    import numpy
    import scipy

    vendor, threads = _blas_info()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
    }


def dump_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))
