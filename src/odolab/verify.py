"""Cross-checking suites that pit independent computation routes against
each other over gallery and seeded random symbols.

Each suite returns a report of per-case checks.  A check passes when two
routes that should agree do agree within the stated threshold, or when a
refusal that should happen does happen.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    DEFAULT_COBURN_POINTS,
    coburn_bound,
    douglas_factor,
    wold_multiplicity,
)
from .errors import RangeNotContained
from .gallery import build_entry
from .numerics import Tolerance
from .operator import (
    SubspaceSelector,
    block,
    build_wl,
    build_wl_adjoint,
    hardy_block_matrix,
    toeplitz_truncation,
)
from .symbol import Symbol


@dataclass
class SuiteCheck:
    suite: str
    case: str
    metric: str
    value: float
    threshold: float
    passed: bool

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        # passed stays ahead of the checks, where text and csv reports list it
        out = {**asdict(self), "passed": self.passed}
        out["checks"] = out.pop("checks")
        return out


def random_symbol(rng, n: int, d: int, max_len: int, count: int = 6) -> Symbol:
    entries = {}
    for _ in range(count):
        m = int(rng.integers(0, max_len + 1))
        word = tuple(int(a) for a in rng.integers(1, n + 1, size=m))
        s = int(rng.integers(1, d + 1))
        q = int(rng.integers(1, d + 1))
        entries[(word, s, q)] = complex(rng.standard_normal(), rng.standard_normal())
    return Symbol(n, d, entries)


def _depth_for(n: int) -> int:
    return {1: 6, 2: 4}.get(n, 3)


def sweep_cases():
    """Small fixed cases covering every gallery family plus n = 1 and n = 3.

    Series entries are truncated hard (R = 2): the identities under test
    hold for any finite symbol, truncated or not.
    """
    cases = []

    def add(label, entry_name, depth=None, **params):
        entry = build_entry(entry_name, **params)
        sym = entry.symbol
        cases.append((label, sym, depth if depth is not None else _depth_for(sym.n)))

    add("shift(k=1)", "shift", k=1)
    add("shift(k=2,d=2)", "shift", k=2, d=2)
    add("vacuum(identity)", "vacuum", d=2)
    add("vacuum(phases)", "vacuum", phases=(1.0, 1j))
    add("diagonal(d=3)", "diagonal", d=3)
    add("projection(d=3,rank=2)", "projection", d=3, rank=2)
    add("moebius(R=2)", "moebius", R=2)
    add("blaschke(R=2)", "blaschke", R=2)
    add("resolvent(d=3,R=2)", "resolvent_shift", d=3, R=2)
    add("constant_plus_shift(a=0.5)", "constant_plus_shift", a=0.5)
    add("hypo_counterexample", "hypo_counterexample")
    cases.append(("one_letter_series", Symbol(1, 1, {((1,) * r, 1, 1): 0.5**r for r in range(4)}), 6))
    cases.append(("three_letters", Symbol(3, 2, {((), 1, 1): 1.0, ((2, 3), 2, 1): 0.7, ((1,), 2, 2): -0.4}), 3))
    return cases


def _isometric_cases():
    labels = {"shift(k=1)", "shift(k=2,d=2)", "vacuum(identity)", "vacuum(phases)",
              "diagonal(d=3)", "projection(d=3,rank=2)"}
    return [(lab, sym, depth) for lab, sym, depth in sweep_cases() if lab in labels]


def _random_cases(rng, count: int):
    cases = []
    for i in range(count):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        sym = random_symbol(rng, n, d, max_len=2)
        cases.append(("random#%02d(n=%d,d=%d)" % (i, n, d), sym, _depth_for(n)))
    return cases


def _adjoint_mismatch(sym: Symbol, depth: int) -> float:
    w = build_wl(sym, depth)
    star = build_wl_adjoint(sym, depth + sym.K)
    return w.conjugate_transpose().max_abs_diff(star.restrict_rows(w.domain.size))


def verify_adjoint(seed: int = 0, random_count: int = 25) -> SuiteReport:
    """Conjugate transpose of the forward build vs the closed-form adjoint."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("adjoint", seed)
    for label, sym, depth in sweep_cases() + _random_cases(rng, random_count):
        gap = _adjoint_mismatch(sym, depth)
        report.checks.append(SuiteCheck("adjoint", label, "max_entry_gap", gap, 1e-12, gap <= 1e-12))
    return report


def _toeplitz_gap(sym: Symbol, depth: int) -> float:
    w = build_wl(sym, depth)
    w22 = block(w, SubspaceSelector.M_PERP, SubspaceSelector.N_PERP)
    transported = hardy_block_matrix(w22)
    cut = transported[: (depth + 1) * sym.d, :]
    t = toeplitz_truncation(sym.theta(), depth + 1)
    return float(np.max(np.abs(cut - t))) if cut.size else 0.0

def verify_toeplitz(seed: int = 0, random_count: int = 12) -> SuiteReport:
    """Chain-sector compression, transported to power coordinates, vs the
    lower-triangular block Toeplitz truncation of the symbol."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("toeplitz", seed)
    for label, sym, depth in sweep_cases() + _random_cases(rng, random_count):
        gap = _toeplitz_gap(sym, depth)
        report.checks.append(SuiteCheck("toeplitz", label, "max_entry_gap", gap, 1e-12, gap <= 1e-12))
    return report


def verify_douglas(seed: int = 0) -> SuiteReport:
    """Factorization through an isometry: recover a planted factor, accept
    self-factoring with the identity, refuse a range violation."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("douglas", seed)

    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    l2 = build_entry("shift", k=1, d=2).symbol
    l1 = Symbol(2, 2, {((1,), s, q): a[s - 1, q - 1] for s in (1, 2) for q in (1, 2)})
    res = douglas_factor(l1, l2, 4)
    gap = float(np.max(np.abs(res.factor - a)))
    report.checks.append(SuiteCheck("douglas", "planted_factor", "factor_gap", gap, 1e-12, gap <= 1e-12))
    report.checks.append(SuiteCheck("douglas", "planted_factor", "wl_gap", res.wl_gap, 1e-12, res.wl_gap <= 1e-12))

    for label, sym, _depth in _isometric_cases():
        res = douglas_factor(sym, sym, 3)
        gap = float(np.max(np.abs(res.factor - np.eye(sym.d))))
        report.checks.append(SuiteCheck("douglas", label + " self", "identity_gap", gap, 1e-12, gap <= 1e-12))

    l1 = build_entry("vacuum", d=2).symbol
    try:
        douglas_factor(l1, l2, 3)
        refused, residual = False, 0.0
    except RangeNotContained as exc:
        refused, residual = True, exc.residual
    report.checks.append(
        SuiteCheck("douglas", "vacuum_through_shift", "refusal_residual", residual, np.sqrt(2.0), refused)
    )
    return report


def verify_coburn(seed: int = 0) -> SuiteReport:
    """Lower bound sigma_min(W - lambda incl) >= 1 - |lambda| on isometric cases."""
    report = SuiteReport("coburn", seed)
    for label, sym, depth in _isometric_cases():
        for pt in coburn_bound(sym, depth, DEFAULT_COBURN_POINTS):
            margin = pt.sigma_min - pt.floor
            case = "%s lam=%s" % (label, np.round(pt.lam, 3))
            report.checks.append(SuiteCheck("coburn", case, "margin", margin, -1e-10, margin >= -1e-10))
    return report


def verify_wold(seed: int = 0) -> SuiteReport:
    """Shift multiplicity read off the operator vs read off the symbol."""
    report = SuiteReport("wold", seed)
    tol = Tolerance()
    for label, sym, depth in _isometric_cases():
        mult_wl, mult_mtheta = wold_multiplicity(sym, depth, tol)
        gap = abs(mult_wl - mult_mtheta)
        report.checks.append(SuiteCheck("wold", label, "mult_gap", float(gap), 0.0, gap == 0))
    return report


SUITES = {
    "adjoint": verify_adjoint,
    "toeplitz": verify_toeplitz,
    "douglas": verify_douglas,
    "coburn": verify_coburn,
    "wold": verify_wold,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](seed)


def run_all(seed: int = 0):
    return [run_suite(name, seed) for name in sorted(SUITES)]
