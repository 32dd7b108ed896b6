"""Precomputed grid of channel-optimized quantizers over bit depth and BER target.

The grid covers b in {1..b_max} and a sorted list of per-bit flip targets.
Each column (fixed target, increasing b) is built bottom-up: the design at
depth b+1 receives the depth-b solution with every level duplicated as a warm
start, which pins the column to be nonincreasing in b. The file holds the SNR
thresholds for every (QAM order, target) pair as well, since the allocator's
inner loop is table-driven.

Serialization is a single self-describing JSON document with every float
written as C99 hex (bit exact), so rebuilding with the same seed reproduces
the file byte for byte and loading cannot drift any threshold comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import modem
from .quantizer import (
    MAX_BIT_DEPTH,
    DesignConfig,
    ScalarQuantizer,
    _analytic_distortion,
    design_channel_optimized,
    uniform_bsc,
)

__all__ = [
    "FORMAT_VERSION",
    "LibraryFormatError",
    "QuantizerLibrary",
    "default_epsilon_grid",
    "build_library",
    "serialize_library",
    "save_library",
    "load_library",
    "sigma_max",
    "gamma_increments_convex",
]

FORMAT_VERSION = 1

DEFAULT_B_MAX = 8
DEFAULT_DELTA = 0.4


class LibraryFormatError(Exception):
    """Raised when a library file cannot be parsed or fails validation."""


def default_epsilon_grid() -> np.ndarray:
    """Ten targets log-uniform (equivalently uniform in dB) over [0.001, 0.05]."""
    return np.geomspace(1e-3, 5e-2, 10)


def _validated_grid(epsilons) -> np.ndarray:
    arr = np.asarray(epsilons, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("epsilon grid must be a nonempty 1-D sequence")
    if np.any(arr <= 0.0) or np.any(arr >= 0.5):
        raise ValueError("epsilon targets must lie in (0, 0.5)")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("epsilon targets must be strictly increasing")
    return arr


@dataclass(frozen=True)
class QuantizerLibrary:
    """The designed grid of quantizers and its SNR-threshold table.

    cells maps (bit depth, epsilon index) to a ScalarQuantizer, exactly the
    grid b = 1..b_max x every target, and cell (b, q) must be a b-bit
    quantizer designed for the flips np.full(b, epsilons[q]).
    gamma_thresholds[s, q] is the SNR at which QAM_BITS[s] hits target q.
    Construction checks the table first (see _check_gamma), then the grid,
    then each cell's slot, so every build, load and dataclasses.replace
    refuses the same libraries; each cell has checked itself when it was
    made. The allocator's sorted loading is the greedy only because the
    steps [0, gamma(QPSK), ..., gamma(256-QAM)] never shrink, which holds for
    every target below 0.34476 and fails above it. design is the
    configuration the cells were designed with. The file's format_version
    is not a field: FORMAT_VERSION is the one version serialize_library
    writes and load_library accepts.

    Construction keeps read-only copies of cells (a mapping proxy of a dict
    copy; each cell is frozen and its arrays read-only already), epsilons
    and gamma_thresholds, and builds two read-only tables and the audit of
    the first: row q of the distortion table holds D(1; b, eps_q) for
    b = 1..b_max, row q of the step table target q's steps (with their
    increments, step_table()), and warnings is _audit(distortion table),
    the table's anomalies (informational, not failures). digest() hashes
    the serialized library on its first call and keeps that hash. The
    library is frozen, so its tables, warnings and digest stay true of its
    fields, and so does what the planner keeps per step table (see
    allocator._LoadingRecord); dataclasses.replace derives a changed
    library, checks its grid and slots and builds new tables and warnings,
    without a digest.
    """

    b_max: int
    epsilons: np.ndarray
    cells: Mapping[tuple[int, int], ScalarQuantizer]
    design: DesignConfig
    gamma_thresholds: np.ndarray
    warnings: list[dict] = field(init=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _steps: np.ndarray = field(init=False, repr=False, compare=False)
    _increments: np.ndarray = field(init=False, repr=False, compare=False)
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_gamma(self.gamma_thresholds, self.epsilons)
        object.__setattr__(self, "cells", types.MappingProxyType(dict(self.cells)))
        object.__setattr__(self, "epsilons", np.array(self.epsilons, float))
        object.__setattr__(self, "gamma_thresholds", np.array(self.gamma_thresholds, float))
        targets, depths = range(self.epsilons.size), range(1, self.b_max + 1)
        grid = {(b, qi) for b in depths for qi in targets}
        if self.cells.keys() != grid:
            missing, extra = sorted(grid - self.cells.keys()), sorted(self.cells.keys() - grid)
            raise ValueError(
                f"library cells are not the grid b = 1..{self.b_max} x {len(targets)} targets: "
                f"missing cells {missing}, extra cells {extra}"
            )
        for (b, qi), q in self.cells.items():
            # a b-bit cell has b flips, so this checks the depth too
            if not np.array_equal(q.designed_for, np.full(b, self.epsilons[qi])):
                raise ValueError(f"cell ({b},{qi}): flips disagree with the epsilon grid")
        table = np.array([[self.cells[(b, qi)].normalized_distortion for b in depths] for qi in targets])
        steps = np.zeros((self.epsilons.size, len(modem.QAM_BITS) + 1))
        steps[:, 1:] = np.transpose(self.gamma_thresholds)
        increments = np.diff(steps, axis=1)
        for arr in (self.epsilons, self.gamma_thresholds, table, steps, increments):
            arr.setflags(write=False)
        for name, value in (("_table", table), ("_steps", steps), ("_increments", increments)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "warnings", _audit(table))

    def quantizer(self, bit_depth: int, eps_index: int) -> ScalarQuantizer:
        return self.cells[(bit_depth, self._check_index(eps_index))]

    def distortion_column(self, eps_index: int) -> np.ndarray:
        """D(1; b, eps) for b = 1..b_max (index 0 is b = 1), a read-only row of the table."""
        return self._table[self._check_index(eps_index)]

    def distortion_table(self) -> np.ndarray:
        """The read-only distortion table: row q is distortion_column(q)."""
        return self._table

    def step_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (targets, 5) step table and its (targets, 4) increments; row q is target q."""
        return self._steps, self._increments

    def digest(self) -> str:
        if self._digest is None:
            object.__setattr__(self, "_digest", hashlib.sha256(serialize_library(self).encode("utf-8")).hexdigest())
        return self._digest

    def _check_index(self, eps_index: int) -> int:
        if not 0 <= eps_index < self.epsilons.size:
            raise IndexError(f"epsilon index {eps_index} out of range")
        return eps_index


def build_library(
    b_max: int = DEFAULT_B_MAX,
    epsilons=None,
    cfg: DesignConfig = DesignConfig(),
) -> QuantizerLibrary:
    """Design every grid cell and the SNR-threshold table.

    The threshold table is computed and checked first, so a grid the planner
    cannot load fails before any cell is designed. Columns are warm-started
    from the previous depth (levels duplicated), so distortion cannot rise
    with b; the library's warnings record grid anomalies. b_max must lie in
    [1, MAX_BIT_DEPTH], checked before any design: a deeper column would
    design every shallower cell first (at b = 12 each with dense
    4096 x 4096 transition matrices) and then fail.
    """
    if not 1 <= b_max <= MAX_BIT_DEPTH:
        raise ValueError(f"b_max must be in [1, {MAX_BIT_DEPTH}], got {b_max!r}")
    grid = _validated_grid(default_epsilon_grid() if epsilons is None else epsilons)
    gamma = np.array([[modem.snr_threshold(m, float(eps)) for eps in grid] for m in modem.QAM_BITS])
    _check_gamma(gamma, grid)

    cells: dict[tuple[int, int], ScalarQuantizer] = {}
    for qi, eps in enumerate(grid):
        prev: ScalarQuantizer | None = None
        for b in range(1, b_max + 1):
            extra = None if prev is None else [np.repeat(prev.levels, 2)]
            q = design_channel_optimized(b, uniform_bsc(b, eps), cfg, extra_init_levels=extra)
            cells[(b, qi)] = q
            prev = q

    return QuantizerLibrary(b_max=b_max, epsilons=grid, cells=cells, design=cfg, gamma_thresholds=gamma)


def _audit(table: np.ndarray) -> list[dict]:
    """The anomalies of a (targets, b_max) distortion table, as JSON records.

    Per target in order, a column that rises with b (at its first rise) and
    one that is not convex (with its least second difference); then per bit
    depth in order, a row that falls as the target grows.
    """
    warnings = []
    for qi, col in enumerate(table):
        rises = np.flatnonzero(np.diff(col) > 1e-12)
        if rises.size:
            warnings.append({"kind": "column-not-monotone", "eps_index": qi, "first_rise_b": int(rises[0]) + 1})
        second = np.diff(col, 2)
        if not np.all(second >= -1e-12):
            warnings.append(
                {"kind": "column-not-convex", "eps_index": qi, "min_second_difference": float(second.min())}
            )
    for b, row in enumerate(table.T, start=1):
        if np.any(np.diff(row) < -1e-9):
            warnings.append({"kind": "row-not-monotone", "b": b})
    return warnings


def _check_gamma(gamma, epsilons) -> None:
    """Raise ValueError unless gamma is a threshold table for the targets epsilons.

    The invariant of QuantizerLibrary.gamma_thresholds, in the order checked:
    shape (len(QAM_BITS), len(epsilons)), finite, a positive first step
    gamma(QPSK), steps that never shrink (gamma_increments_convex, per
    target), and |ber_approx(m, gamma) - target| <= SNR_THRESHOLD_TOL.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    shape = (len(modem.QAM_BITS), np.size(epsilons))
    if gamma.shape != shape:
        raise ValueError(f"gamma threshold table has wrong shape {gamma.shape}, expected {shape}")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("gamma thresholds must be finite")
    if not np.all(gamma[0] > 0):
        raise ValueError("gamma thresholds need a positive first step gamma(QPSK)")
    shrinks = np.flatnonzero(~gamma_increments_convex(np.vstack((np.zeros(shape[1]), gamma))))
    if shrinks.size:
        qi = int(shrinks[0])
        raise ValueError(f"gamma threshold steps shrink at target {float(epsilons[qi])!r} (eps index {qi})")
    for m, row in zip(modem.QAM_BITS, gamma):
        miss = np.abs(modem.ber_approx(m, row) - epsilons)
        if not np.all(miss <= modem.SNR_THRESHOLD_TOL):
            raise ValueError(f"gamma thresholds of {m}-bit QAM miss their BER targets by up to {np.max(miss):.3g}")


def gamma_increments_convex(gamma_steps: np.ndarray):
    """Exact float test that the steps of [0, gamma(QPSK), ..., gamma(256-QAM)] never shrink.

    gamma_steps is one such vector (returns a 0-d np.bool_) or a table holding
    one per column, axis 0 running over the modulation steps (returns a bool
    per column). The allocator's sorted loading equals the greedy only under
    this test, and every library's table passes it (see _check_gamma).
    """
    return np.all(np.diff(gamma_steps, 2, axis=0) >= 0, axis=0)


_SIGMA_ULPS = 64


def sigma_max(lib: QuantizerLibrary) -> float:
    """Largest source sigma for which every variance admits a feasible depth at every target.

    A target's best reachable distortion is the smallest entry of its column,
    the last entry of the running minimum the planner tests feasibility
    against, so a column that rises again at b_max does not lower sigma_max.
    The result is the largest float s whose square, taken as s * s or as
    s ** 2 (libm's pow, which may round the other way), passes the planner's
    own test D <= 1 / (s^2 + 1) on the worst target. sqrt(1/D - 1) can miss
    that test by an ulp, so the floats within _SIGMA_ULPS ulps of it are
    tested. Over 20 000 random D in (0, 0.94], which covers every supported
    target (D <= 0.94 at b = 1), the answer lay at most 5 ulps away.
    """
    d = lib.distortion_table().min(axis=1).max()
    near = np.float64(np.sqrt(1.0 / d - 1.0))
    # neighbouring floats have neighbouring bit patterns
    bits = near.view(np.int64) + np.arange(-_SIGMA_ULPS, _SIGMA_ULPS + 1)
    sigma = np.maximum(bits, 0).view(np.float64)
    square = np.maximum(sigma * sigma, [s**2 for s in sigma.tolist()])
    return float(sigma[d <= 1.0 / (square + 1.0)][-1])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _hex_list(arr) -> list[str]:
    return [v.hex() for v in np.asarray(arr, dtype=np.float64).ravel().tolist()]


def _unhex_array(strings) -> np.ndarray:
    return np.fromiter(map(float.fromhex, strings), dtype=np.float64)


def serialize_library(lib: QuantizerLibrary) -> str:
    cells = []
    for (b, qi) in sorted(lib.cells.keys()):
        q = lib.cells[(b, qi)]
        cells.append(
            {
                "b": b,
                "eps_index": qi,
                "flips": _hex_list(q.designed_for),
                "active_count": q.active_count,
                "thresholds": _hex_list(q.thresholds),
                "levels": _hex_list(q.levels),
                "region_codewords": [int(c) for c in q.region_codewords],
                "distortion": float(q.normalized_distortion).hex(),
            }
        )
    doc = {
        "kind": "quantizer-library",
        "format_version": FORMAT_VERSION,
        "b_max": lib.b_max,
        "epsilons": _hex_list(lib.epsilons),
        "design": {
            "restarts": lib.design.restarts,
            "max_iters": lib.design.max_iters,
            "rel_tol": float(lib.design.rel_tol).hex(),
            "seed": lib.design.seed,
        },
        "qam_bits": list(modem.QAM_BITS),
        "gamma_thresholds": [_hex_list(row) for row in lib.gamma_thresholds],
        "warnings": lib.warnings,
        "cells": cells,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_library(lib: QuantizerLibrary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_library(lib))


def load_library(path) -> QuantizerLibrary:
    """Read and check a library file; raises LibraryFormatError for any file it refuses.

    Each cell checks itself when it is made, and the threshold table, the
    grid and each cell's slot (its depth and flips) are checked when the
    library is made; then each cell's stored distortion is checked against
    its parameters, and warnings must be a list of JSON objects equal to
    the audit of the loaded distortion table, which the library derives
    itself.
    """
    # an int would open a file descriptor (0 reads stdin)
    if not isinstance(path, (str, os.PathLike)):
        raise LibraryFormatError(f"library path must be a string or path, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LibraryFormatError(f"cannot read library file {path}: {exc}") from exc
    try:
        if doc["kind"] != "quantizer-library":
            raise LibraryFormatError(f"not a quantizer library file: kind={doc.get('kind')}")
        if doc["format_version"] != FORMAT_VERSION:
            raise LibraryFormatError(
                f"unsupported format_version {doc['format_version']}, expected {FORMAT_VERSION}"
            )
        if list(doc["qam_bits"]) != list(modem.QAM_BITS):
            raise LibraryFormatError("QAM order set in file does not match this build")
        b_max = doc["b_max"]
        if not isinstance(b_max, int) or isinstance(b_max, bool) or not 1 <= b_max <= MAX_BIT_DEPTH:
            raise LibraryFormatError(f"b_max must be an int in [1, {MAX_BIT_DEPTH}], got {b_max!r}")
        epsilons = _validated_grid(_unhex_array(doc["epsilons"]))
        design = DesignConfig(
            restarts=doc["design"]["restarts"],
            max_iters=doc["design"]["max_iters"],
            rel_tol=float.fromhex(doc["design"]["rel_tol"]),
            seed=doc["design"]["seed"],
        )
        gamma = np.array([_unhex_array(row) for row in doc["gamma_thresholds"]])
        cells: dict[tuple[int, int], ScalarQuantizer] = {}
        for rec in doc["cells"]:
            b = rec["b"]
            if (b, rec["eps_index"]) in cells:
                raise LibraryFormatError(f"cell ({b},{rec['eps_index']}) appears twice")
            # np.int64 would truncate a float and convert a bool
            if not set(map(type, rec["region_codewords"])) <= {int}:
                raise LibraryFormatError(f"cell ({b},{rec['eps_index']}): region_codewords must hold only ints")
            q = ScalarQuantizer(
                bit_depth=b,
                thresholds=_unhex_array(rec["thresholds"]),
                levels=_unhex_array(rec["levels"]),
                region_codewords=np.array(rec["region_codewords"], dtype=np.int64),
                designed_for=_unhex_array(rec["flips"]),
                normalized_distortion=float.fromhex(rec["distortion"]),
            )
            if rec["active_count"] != q.active_count:
                raise LibraryFormatError(f"cell ({b},{rec['eps_index']}): active_count mismatch")
            cells[(b, rec["eps_index"])] = q
        # refused before the audit, with a message that names the shape
        if not isinstance(doc["warnings"], list) or not all(isinstance(w, dict) for w in doc["warnings"]):
            raise LibraryFormatError("warnings must be a list of JSON objects")
        lib = QuantizerLibrary(b_max=b_max, epsilons=epsilons, cells=cells, design=design, gamma_thresholds=gamma)
        # the slot check has passed: each cell's flips are a checked target's
        for (b, qi), q in lib.cells.items():
            # written as `not <=` so that a NaN distortion fails too
            if not abs(_analytic_distortion(q, q.designed_for) - q.normalized_distortion) <= 1e-10:
                raise LibraryFormatError(f"cell ({b},{qi}): stored distortion disagrees with parameters")
        # compared as written, so that the library re-serializes to the file's bytes
        if json.dumps(doc["warnings"], sort_keys=True) != json.dumps(lib.warnings, sort_keys=True):
            raise LibraryFormatError("warnings disagree with the audit of the distortion table")
    except LibraryFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise LibraryFormatError(f"malformed library file {path}: {exc}") from exc
    return lib
