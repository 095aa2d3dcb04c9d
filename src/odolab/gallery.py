"""Named example symbols with frozen expected behavior.

Each entry is one function, named as its registry key, whose keyword
parameters are the entry's parameters.  It returns the symbol, a map of
exact expected values derived in its docstring, and a bound on the tail
it truncates.  The tests and the benchmark's verdict checks read the
expected maps; nothing here recomputes them from the analysis code, that
would be circular.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAProjection
from .numerics import DEFAULT_EPS_EXACT
from .symbol import Symbol

GOLDEN_MOEBIUS_POINT = (1.0 - np.sqrt(5.0)) / 2.0  # the negative golden conjugate


@dataclass
class GalleryEntry:
    symbol: Symbol
    expected: dict = field(default_factory=dict)
    tail_bound: float | None = None


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
    return Symbol(n, d, {((), s, q): u[s - 1, q - 1] for s in range(1, d + 1) for q in range(1, d + 1)})


def _isometric(defect: int) -> dict:
    # an exactly isometric symbol: unitary exactly when it has no defect,
    # index -defect and Wold multiplicity defect
    return {
        "isometric_exact": True,
        "unitary": defect == 0,
        "defect_dim": defect,
        "fredholm_index": -defect,
        "mult": defect,
    }


def projection_symbol(p, n: int = 2) -> GalleryEntry:
    """L = vacuum on the complement of P plus the 1-shift on ran P; the
    defect is vacuum tensor ran P, of dimension rank P."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NotAProjection("need a square matrix")
    if max(np.max(np.abs(p - p.conj().T)), np.max(np.abs(p @ p - p))) > DEFAULT_EPS_EXACT:
        raise NotAProjection("matrix fails P = P* = P^2 within %g" % DEFAULT_EPS_EXACT)
    d = p.shape[0]
    comp = np.eye(d) - p
    entries = {}
    for s in range(1, d + 1):
        for q in range(1, d + 1):
            entries[((), s, q)] = comp[s - 1, q - 1]
            entries[((1,), s, q)] = p[s - 1, q - 1]
    rank = int(round(float(np.real(np.trace(p)))))
    return GalleryEntry(
        symbol=Symbol(n, d, entries),
        expected=_isometric(rank),
        tail_bound=0.0,
    )


def shift(k: int = 1, n: int = 2, d: int = 1) -> GalleryEntry:
    """The k-shift in every slot; the defect spans the chain degrees below
    k in every slot."""
    return GalleryEntry(
        symbol=shift_symbol(k, n, d),
        expected={**_isometric(k * d), "invertible": k == 0},
        tail_bound=0.0,
    )


def vacuum(d: int = 2, phases=None, n: int = 2) -> GalleryEntry:
    """L = vacuum tensor U, U = I or diag(phases): it relabels the slots at
    every word, a permutation of the basis when U is unitary."""
    if phases is None:
        u = np.eye(d, dtype=complex)
    else:
        u = np.diag([complex(p) for p in phases])
        d = u.shape[0]
    sym = vacuum_symbol(u, n)
    unitary = bool(np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12)
    return GalleryEntry(
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
    )


def diagonal(d: int = 3, n: int = 2) -> GalleryEntry:
    """Slot p rides the 1-chain of length p: L h_{p+1} = e_1^p tensor h_{p+1};
    slot p misses the chain degrees below p, total d(d-1)/2."""
    if d < 1:
        raise ValueError("need d >= 1")
    return GalleryEntry(
        symbol=Symbol(n, d, {((1,) * p, p + 1, p + 1): 1.0 for p in range(d)}),
        expected={**_isometric(d * (d - 1) // 2), "invertible": d == 1},
        tail_bound=0.0,
    )


def blaschke(zeros=(0.5, -0.3), R: int = 12, n: int = 2) -> GalleryEntry:
    """Product of disk automorphism factors, scalar slots, truncated at degree R.

    Inner in the limit; the truncation misses isometry by at most the tail
    bound (max |zero|)^R, exact for a single factor, an estimate for products.
    """
    zeros = [complex(a) for a in zeros]
    for a in zeros:
        if abs(a) >= 1:
            raise ValueError("zeros must lie strictly inside the disk")
    coeffs = np.zeros(R + 1, dtype=complex)
    coeffs[0] = 1.0
    for a in zeros:
        # (z - a) / (1 - conj(a) z) expanded at 0: -a, then (1-|a|^2) conj(a)^{r-1}
        factor = np.zeros(R + 1, dtype=complex)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(R)
        coeffs = np.convolve(coeffs, factor)[: R + 1]
    rho = max((abs(a) for a in zeros), default=0.0)
    return GalleryEntry(
        symbol=Symbol(n, 1, {((1,) * r, 1, 1): coeffs[r] for r in range(R + 1)}),
        expected={
            "isometric_exact": rho == 0.0,
            "inner_limit": True,
            "c0": coeffs[0],
        },
        tail_bound=0.0 if rho == 0.0 else float(rho**R),
    )


def moebius(a: complex | None = None, R: int = 40, n: int = 2) -> GalleryEntry:
    """Single disk automorphism, closed-form coefficients up to degree R:
    c0 = -a, and at the default golden point a = (1 - sqrt 5)/2,
    |c0| = sqrt(2 / (sqrt 5 + 3))."""
    a = GOLDEN_MOEBIUS_POINT if a is None else complex(a)
    if abs(a) >= 1:
        raise ValueError("point must lie strictly inside the disk")
    entries = {((), 1, 1): -a}
    scale = 1.0 - abs(a) ** 2
    for r in range(1, R + 1):
        entries[((1,) * r, 1, 1)] = scale * np.conj(a) ** (r - 1)
    return GalleryEntry(
        symbol=Symbol(n, 1, entries),
        expected={
            "isometric_exact": a == 0,
            "inner_limit": True,
            "c0": -a,
            "c0_golden": float(np.sqrt(2.0 / (np.sqrt(5.0) + 3.0))),
        },
        tail_bound=0.0 if a == 0 else float(abs(a) ** R),
    )


def resolvent_shift(d: int = 4, R: int = 12, n: int = 2) -> GalleryEntry:
    """Geometric resolvent of the nilpotent slot shift: the length-r 1-chain
    moves slot q to q + r with weight 2^-(r+1), a finite series once
    R >= d - 1.  The last slot keeps only weight 1/2, so expansivity fails
    robustly."""
    if d < 2:
        raise ValueError("need d >= 2 for the slot shift to act")
    entries = {}
    for q in range(1, d + 1):
        for r in range(0, min(R, d - q) + 1):
            entries[((1,) * r, q + r, q)] = 2.0 ** -(r + 1)
    return GalleryEntry(
        symbol=Symbol(n, d, entries),
        expected={
            "isometric_exact": False,
            "sigma_min_l": 0.5,
            "sigma_min_sq_bound": 1.0 / 3.0,
            "first_column_norm_sq": sum(4.0 ** -(r + 1) for r in range(min(R, d - 1) + 1)),
            "hypo_necessary": False,
        },
        tail_bound=0.0 if R >= d - 1 else float(2.0 ** -(R + 1) / np.sqrt(3.0)),
    )


def projection(d: int = 3, rank: int = 2, n: int = 2) -> GalleryEntry:
    """projection_symbol of the diagonal projection onto the first rank slots."""
    return projection_symbol(np.diag([1.0] * rank + [0.0] * (d - rank)), n)


def constant_plus_shift(a: complex = 0.5, n: int = 2, d: int = 1) -> GalleryEntry:
    """L = I at the vacuum plus a times the 1-shift, 0 < |a| < 1: 1 + a z is
    outer with winding zero, hence invertible, and peaks at 1 + |a|."""
    a = complex(a)
    if not 0 < abs(a) < 1:
        raise ValueError("need 0 < |a| < 1")
    entries = {}
    for s in range(1, d + 1):
        entries[((), s, s)] = 1.0
        entries[((1,), s, s)] = a
    return GalleryEntry(
        symbol=Symbol(n, d, entries),
        expected={
            "isometric_exact": False,
            "invertible": True,
            "isometry_dev": abs(a),
            "sup_norm": 1.0 + abs(a),
            "column_norm_sq": 1.0 + abs(a) ** 2,
        },
        tail_bound=0.0,
    )


def hypo_counterexample(n: int = 2) -> GalleryEntry:
    """Vacuum plus full 1-shift: expansive but not hyponormal.  The columns
    have norm sqrt 2, yet the adjoint doubles the mass of e_1, gap exactly 1;
    the boundary sup of 1 + z is 2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return GalleryEntry(
        symbol=Symbol(n, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0}),
        expected={
            "isometric_exact": False,
            "sigma_min_l": float(np.sqrt(2.0)),
            "witness_word": (1,),
            "witness_gap": 1.0,
            "sup_norm": 2.0,
        },
        tail_bound=0.0,
    )


GALLERY = {entry.__name__: entry for entry in (
    shift, vacuum, diagonal, blaschke, moebius, resolvent_shift, projection, constant_plus_shift,
    hypo_counterexample,
)}


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
