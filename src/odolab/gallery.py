"""Named example symbols with frozen expected behavior.

Each entry records the symbol, the parameters that built it, an expected
map of exact values (with a short derivation note), and a tail bound when
the entry truncates an infinite coefficient series.  Tests and the
verification suites consume the expected maps; nothing here recomputes
them from the analysis code, that would be circular.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAProjection
from .symbol import Symbol

GOLDEN_MOEBIUS_POINT = (1.0 - np.sqrt(5.0)) / 2.0  # the negative golden conjugate


@dataclass
class GalleryEntry:
    name: str
    params: dict
    symbol: Symbol
    expected: dict = field(default_factory=dict)
    tail_bound: float | None = None
    notes: str = ""

    def __repr__(self):
        return "GalleryEntry(%r, params=%r)" % (self.name, self.params)


def shift_symbol(k: int = 1, n: int = 2, d: int = 1) -> Symbol:
    """L h_s = (1-chain of length k) tensor h_s."""
    if k < 0:
        raise ValueError("need k >= 0")
    return Symbol(n, d, {((1,) * k, s, s): 1.0 for s in range(1, d + 1)})


def vacuum_symbol(u, n: int = 2) -> Symbol:
    """L eta = vacuum tensor U eta."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("need a square matrix")
    d = u.shape[0]
    entries = {}
    for s in range(1, d + 1):
        for q in range(1, d + 1):
            if u[s - 1, q - 1] != 0:
                entries[((), s, q)] = u[s - 1, q - 1]
    return Symbol(n, d, entries)


def diagonal_symbol(d: int, n: int = 2) -> Symbol:
    """Slot p rides the 1-chain of length p: L h_{p+1} = e_1^p tensor h_{p+1}."""
    if d < 1:
        raise ValueError("need d >= 1")
    return Symbol(n, d, {((1,) * p, p + 1, p + 1): 1.0 for p in range(d)})


def _blaschke_factor_coeffs(a: complex, r_max: int) -> np.ndarray:
    # (z - a) / (1 - conj(a) z) expanded at 0: -a, then (1-|a|^2) conj(a)^{r-1}
    c = np.zeros(r_max + 1, dtype=complex)
    c[0] = -a
    if r_max >= 1:
        scale = 1.0 - abs(a) ** 2
        c[1:] = scale * np.conj(a) ** np.arange(r_max)
    return c


def blaschke_symbol(zeros, r_trunc: int, n: int = 2) -> GalleryEntry:
    """Truncated product of disk automorphism factors, scalar slots.

    Coefficients come from convolving the factor series; the tail bound is
    the geometric envelope (max |zero|)^r_trunc, exact for a single factor
    and an estimate for products.
    """
    zeros = [complex(a) for a in zeros]
    for a in zeros:
        if abs(a) >= 1:
            raise ValueError("zeros must lie strictly inside the disk")
    coeffs = np.zeros(r_trunc + 1, dtype=complex)
    coeffs[0] = 1.0
    for a in zeros:
        coeffs = np.convolve(coeffs, _blaschke_factor_coeffs(a, r_trunc))[: r_trunc + 1]
    entries = {((1,) * r, 1, 1): coeffs[r] for r in range(r_trunc + 1) if coeffs[r] != 0}
    rho = max((abs(a) for a in zeros), default=0.0)
    tail = 0.0 if rho == 0.0 else float(rho**r_trunc)
    exact = rho == 0.0
    return GalleryEntry(
        name="blaschke",
        params={"zeros": zeros, "R": r_trunc, "n": n},
        symbol=Symbol(n, 1, entries),
        expected={
            "isometric_exact": exact,
            "inner_limit": True,
            "c0": coeffs[0],
        },
        tail_bound=tail,
        notes="inner in the limit; truncation misses isometry by at most the tail",
    )


def moebius_symbol(a: complex | None = None, r_trunc: int = 40, n: int = 2) -> GalleryEntry:
    """Single disk automorphism with closed-form coefficients.

    Defaults to the golden point a = (1 - sqrt 5)/2, where the constant
    coefficient is -a = sqrt(2 / (sqrt 5 + 3)).
    """
    a = GOLDEN_MOEBIUS_POINT if a is None else complex(a)
    if abs(a) >= 1:
        raise ValueError("point must lie strictly inside the disk")
    entries = {((), 1, 1): -a}
    scale = 1.0 - abs(a) ** 2
    for r in range(1, r_trunc + 1):
        entries[((1,) * r, 1, 1)] = scale * np.conj(a) ** (r - 1)
    tail = 0.0 if a == 0 else float(abs(a) ** r_trunc)
    return GalleryEntry(
        name="moebius",
        params={"a": a, "R": r_trunc, "n": n},
        symbol=Symbol(n, 1, entries),
        expected={
            "isometric_exact": a == 0,
            "inner_limit": True,
            "c0": -a,
            "c0_golden": float(np.sqrt(2.0 / (np.sqrt(5.0) + 3.0))),
        },
        tail_bound=tail,
        notes="c0 = -a; at the golden point |c0| equals sqrt(2/(sqrt 5 + 3))",
    )


def resolvent_shift_symbol(d: int = 4, r_trunc: int = 12, n: int = 2) -> GalleryEntry:
    """Geometric resolvent of the nilpotent slot shift.

    Coefficient on the length-r 1-chain moves slot q to q + r with weight
    2^-(r+1); the slot cap makes the series finite once r_trunc >= d - 1.
    """
    if d < 2:
        raise ValueError("need d >= 2 for the slot shift to act")
    entries = {}
    for q in range(1, d + 1):
        for r in range(0, min(r_trunc, d - q) + 1):
            entries[((1,) * r, q + r, q)] = 2.0 ** -(r + 1)
    first_col = sum(4.0 ** -(r + 1) for r in range(min(r_trunc, d - 1) + 1))
    tail = 0.0 if r_trunc >= d - 1 else float(2.0 ** -(r_trunc + 1) / np.sqrt(3.0))
    return GalleryEntry(
        name="resolvent_shift",
        params={"d": d, "R": r_trunc, "n": n},
        symbol=Symbol(n, d, entries),
        expected={
            "isometric_exact": False,
            "sigma_min_l": 0.5,
            "sigma_min_sq_bound": 1.0 / 3.0,
            "first_column_norm_sq": first_col,
            "hypo_necessary": False,
        },
        tail_bound=tail,
        notes="columns are orthogonal; the last slot keeps only weight 1/2, "
        "so expansivity fails robustly",
    )


def projection_symbol(p, n: int = 2, tol: float = 1e-10) -> GalleryEntry:
    """L = vacuum on the complement of P plus the 1-shift on ran P."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NotAProjection("need a square matrix")
    if np.max(np.abs(p - p.conj().T)) > tol or np.max(np.abs(p @ p - p)) > tol:
        raise NotAProjection("matrix fails P = P* = P^2 within %g" % tol)
    d = p.shape[0]
    comp = np.eye(d) - p
    entries = {}
    for s in range(1, d + 1):
        for q in range(1, d + 1):
            if comp[s - 1, q - 1] != 0:
                entries[((), s, q)] = comp[s - 1, q - 1]
            if p[s - 1, q - 1] != 0:
                entries[((1,), s, q)] = p[s - 1, q - 1]
    rank = int(round(float(np.real(np.trace(p)))))
    return GalleryEntry(
        name="projection",
        params={"diag": [float(np.real(p[i, i])) for i in range(d)], "n": n},
        symbol=Symbol(n, d, entries),
        expected={
            "isometric_exact": True,
            "unitary": rank == 0,
            "defect_dim": rank,
            "fredholm_index": -rank,
            "mult": rank,
        },
        tail_bound=0.0,
        notes="defect = vacuum tensor ran P, dimension rank P",
    )


def constant_plus_shift_symbol(a: complex = 0.5, n: int = 2, d: int = 1) -> GalleryEntry:
    """L = I at the vacuum plus a times the 1-shift, 0 < |a| < 1."""
    a = complex(a)
    if not 0 < abs(a) < 1:
        raise ValueError("need 0 < |a| < 1")
    entries = {}
    for s in range(1, d + 1):
        entries[((), s, s)] = 1.0
        entries[((1,), s, s)] = a
    return GalleryEntry(
        name="constant_plus_shift",
        params={"a": a, "n": n, "d": d},
        symbol=Symbol(n, d, entries),
        expected={
            "isometric_exact": False,
            "invertible": True,
            "isometry_dev": abs(a),
            "sup_norm": 1.0 + abs(a),
            "column_norm_sq": 1.0 + abs(a) ** 2,
        },
        tail_bound=0.0,
        notes="symbol 1 + a z is outer with winding zero, hence invertible; "
        "boundary modulus peaks at 1 + |a|",
    )


def hypo_counterexample_symbol(n: int = 2) -> GalleryEntry:
    """Vacuum plus full 1-shift: expansive but not hyponormal."""
    if n < 2:
        raise ValueError("needs n >= 2")
    sym = Symbol(n, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0})
    return GalleryEntry(
        name="hypo_counterexample",
        params={"n": n},
        symbol=sym,
        expected={
            "isometric_exact": False,
            "sigma_min_l": float(np.sqrt(2.0)),
            "witness_word": (1,),
            "witness_gap": 1.0,
            "sup_norm": 2.0,
        },
        tail_bound=0.0,
        notes="columns have norm sqrt 2 yet the adjoint doubles the mass of "
        "e_1, gap exactly 1; boundary sup of 1 + z is 2 while the column "
        "norm stays sqrt 2",
    )


# ---------------------------------------------------------------------------
# registry


def _entry_shift(k: int = 1, n: int = 2, d: int = 1) -> GalleryEntry:
    sym = shift_symbol(k, n, d)
    return GalleryEntry(
        name="shift",
        params={"k": k, "n": n, "d": d},
        symbol=sym,
        expected={
            "isometric_exact": True,
            "unitary": k == 0,
            "defect_dim": k * d,
            "fredholm_index": -k * d,
            "mult": k * d,
            "invertible": k == 0,
        },
        tail_bound=0.0,
        notes="defect spans chain degrees below k in every slot",
    )


def _entry_vacuum(d: int = 2, phases=None, n: int = 2) -> GalleryEntry:
    if phases is None:
        u = np.eye(d, dtype=complex)
    else:
        u = np.diag([complex(p) for p in phases])
        d = u.shape[0]
    sym = vacuum_symbol(u, n)
    unitary = bool(np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12)
    return GalleryEntry(
        name="vacuum",
        params={"d": d, "phases": None if phases is None else [complex(p) for p in phases], "n": n},
        symbol=sym,
        expected={
            "isometric_exact": unitary,
            "unitary": unitary,
            "defect_dim": 0 if unitary else None,
            "fredholm_index": 0 if unitary else None,
            "mult": 0 if unitary else None,
            "invertible": bool(np.min(np.abs(np.diag(u))) > 0) if phases else True,
        },
        tail_bound=0.0,
        notes="relabels the coefficient slots at every word, a permutation "
        "of the basis when U is unitary",
    )


def _entry_diagonal(d: int = 3, n: int = 2) -> GalleryEntry:
    sym = diagonal_symbol(d, n)
    return GalleryEntry(
        name="diagonal",
        params={"d": d, "n": n},
        symbol=sym,
        expected={
            "isometric_exact": True,
            "unitary": d == 1,
            "defect_dim": d * (d - 1) // 2,
            "fredholm_index": -(d * (d - 1) // 2),
            "mult": d * (d - 1) // 2,
            "invertible": d == 1,
        },
        tail_bound=0.0,
        notes="slot p misses chain degrees below p, total d(d-1)/2",
    )


def _entry_projection(d: int = 3, rank: int = 2, n: int = 2) -> GalleryEntry:
    diag = [1.0] * rank + [0.0] * (d - rank)
    return projection_symbol(np.diag(diag), n)


GALLERY = {
    "shift": _entry_shift,
    "vacuum": _entry_vacuum,
    "diagonal": _entry_diagonal,
    "blaschke": lambda zeros=(0.5, -0.3), R=12, n=2: blaschke_symbol(zeros, R, n),
    "moebius": lambda a=None, R=40, n=2: moebius_symbol(a, R, n),
    "resolvent_shift": lambda d=4, R=12, n=2: resolvent_shift_symbol(d, R, n),
    "projection": _entry_projection,
    "constant_plus_shift": lambda a=0.5, n=2, d=1: constant_plus_shift_symbol(a, n, d),
    "hypo_counterexample": lambda n=2: hypo_counterexample_symbol(n),
}


def gallery_names():
    return sorted(GALLERY)


def build_entry(name: str, **params) -> GalleryEntry:
    if name not in GALLERY:
        raise KeyError("unknown gallery entry %r (have: %s)" % (name, ", ".join(gallery_names())))
    accepted = inspect.signature(GALLERY[name]).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError("gallery entry %r takes no parameter %s (accepted: %s)"
                         % (name, ", ".join(unknown), ", ".join(accepted)))
    try:
        return GALLERY[name](**params)
    except TypeError as exc:
        given = ", ".join("%s=%r" % item for item in params.items())
        raise ValueError("gallery entry %r cannot take %s: %s" % (name, given, exc)) from exc
