"""Seeded workloads for the odolab benchmark.

A workload is one pass: a fixed list of verdict calls into odolab's public
API.  The benchmark repeats whole passes, so every pass does the same work.
The seed picks coefficients, unitaries and word choices; the shapes that
set the cost (alphabet size n, slot count d, symbol depth K, truncation
depth D) are fixed per workload, so seeds change values, not cost.

Every call carries a check built from the library's own criteria and a
verdict tuple of discrete outcomes, which feeds the run's digest.  Every
option is passed explicitly: tolerances, boundary grid, depth and
``invertibility=True``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import odolab
import odolab.cli  # noqa: F401  (bound here so the tracer can wrap cli.main)
from odolab import Symbol, fock
from odolab.operator import FockOperator, SubspaceSelector

EPS_EXACT = 1e-10
EPS_RANK = 1e-8
TOL = odolab.Tolerance(eps_exact=EPS_EXACT, eps_rank=EPS_RANK)
GRID = 4096
GAP = 1e-12  # adjoint and Toeplitz cross-check threshold of the verify suites
COBURN_SLACK = -1e-10
SUITE_SEED = 0


@dataclass
class Op:
    """One verdict call: ``run`` calls odolab, ``check`` returns failures."""

    kind: str
    n: int
    d: int
    depth: int
    run: Callable[[], object]
    check: Callable[[object], list]
    verdict: Callable[[object], object]

    @property
    def basis(self) -> int:
        return self.d * fock.word_count(self.n, self.depth) if self.n else 0


# ---------------------------------------------------------------------------
# input generation (the benchmark's own; odolab only sees the symbols)


def random_symbol(rng, n, d, k, count):
    """Random coefficients on random words of length <= k, one of length k."""
    entries = {}
    for m in [k] + [int(rng.integers(0, k + 1)) for _ in range(count - 1)]:
        word = tuple(int(a) for a in rng.integers(1, n + 1, size=m))
        s, q = (int(x) for x in rng.integers(1, d + 1, size=2))
        entries[(word, s, q)] = complex(rng.standard_normal(), rng.standard_normal())
    return Symbol(n, d, entries)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def inner_symbol(rng, n, ks):
    """1-chain symbol Theta(z) = U diag(z^k_1, ..., z^k_d) V, U and V unitary.

    Theta is inner with no interior support, so the map is an isometry with
    defect, multiplicity and minus the index all equal to sum(ks); it is
    invertible exactly when every k is 0.
    """
    d = len(ks)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    entries = {}
    for r in sorted(set(ks)):
        theta_r = u @ np.diag([1.0 if k == r else 0.0 for k in ks]) @ v
        for s in range(d):
            for q in range(d):
                entries[((1,) * r, s + 1, q + 1)] = theta_r[s, q]
    total = sum(ks)
    expected = {
        "isometric_exact": True,
        "unitary": total == 0,
        "defect_dim": total,
        "fredholm_index": -total,
        "mult": total,
        "invertible": total == 0,
    }
    return Symbol(n, d, entries), expected


def gallery_entry(name, params):
    entry = odolab.build_entry(name, **params)
    return entry.symbol, entry.expected


# ---------------------------------------------------------------------------
# checks and verdicts


def _expect(errs, label, got, want):
    if got != want:
        errs.append("%s: got %r, expected %r" % (label, got, want))


def check_classify(rep, expected):
    errs = []
    if rep.mult_wl is not None:
        _expect(errs, "mult_wl vs mult_mtheta", rep.mult_wl, rep.mult_mtheta)
    if rep.isometric:
        _expect(errs, "defect_dim vs kernel_dim", rep.defect_dim, rep.kernel_dim)
    fields = {
        "isometric_exact": rep.isometric,
        "unitary": rep.unitary,
        "defect_dim": rep.defect_dim,
        "fredholm_index": rep.fredholm,
        "mult": rep.mult_wl,
        "invertible": rep.invertible,
        "hypo_necessary": rep.hypo_necessary,
    }
    for key, got in fields.items():
        if expected.get(key) is not None:
            _expect(errs, key, got, expected[key])
    if "isometry_dev" in expected and abs(rep.isometry_dev - expected["isometry_dev"]) > 1e-12:
        errs.append("isometry_dev %.3e != %.3e" % (rep.isometry_dev, expected["isometry_dev"]))
    errs.extend(check_norm(rep.norm, expected))
    return errs


def check_norm(rep, expected=None):
    errs = []
    if rep.bracket_lower > rep.bracket_upper:
        errs.append("sup bracket inverted")
    if rep.applicable and rep.sigma_max > rep.formula_value + 1e-9:
        errs.append("truncated norm %.12g above closed form %.12g" % (rep.sigma_max, rep.formula_value))
    # the vacuum columns of the map are L itself, so its norm bounds sigma_max below
    if rep.sigma_max < rep.sigma_l * (1.0 - 1e-9):
        errs.append("sigma_max %.12g below sigma_l %.12g" % (rep.sigma_max, rep.sigma_l))
    sup = (expected or {}).get("sup_norm")
    if sup is not None and not rep.bracket_lower - 1e-12 <= sup <= rep.bracket_upper + 1e-12:
        errs.append("sup norm %g outside bracket" % sup)
    return errs


def classify_verdict(rep):
    return (
        rep.isometric, rep.unitary, rep.invertible, rep.defect_dim, rep.defect_stable,
        rep.el_dim, rep.kernel_dim, rep.el_minus_range_dim, rep.fredholm,
        rep.mult_wl, rep.mult_mtheta, rep.hypo_necessary, rep.norm.applicable,
        sorted(rep.sigma_min_square or ()),
    )


def classify_op(sym, depth, expected):
    return Op(
        "classify", sym.n, sym.d, depth,
        run=lambda: odolab.analysis.classify(sym, depth, TOL, grid=GRID, invertibility=True),
        check=lambda rep: check_classify(rep, expected),
        verdict=classify_verdict,
    )


def coburn_op(sym, depth):
    def check(points):
        return ["coburn margin %.3e at lambda=%s" % (p.sigma_min - p.floor, p.lam)
                for p in points if p.sigma_min - p.floor < COBURN_SLACK]

    return Op(
        "coburn_bound", sym.n, sym.d, depth,
        run=lambda: odolab.analysis.coburn_bound(sym, depth, odolab.analysis.DEFAULT_COBURN_POINTS, TOL),
        check=check,
        verdict=lambda points: len(points),
    )


def run_all_op():
    """The library's cross-check suites.  Their random cases change cost by
    up to half between seeds, so the suite seed stays fixed."""

    def check(reports):
        return ["verify suite %s failed" % r.suite for r in reports if not r.passed]

    return Op(
        "verify.run_all", 0, 0, 0,
        run=lambda: odolab.verify.run_all(SUITE_SEED),
        check=check,
        verdict=lambda reports: [(r.suite, r.passed, len(r.checks)) for r in reports],
    )


def cli_op(argv, sym, depth, expected):
    """In-process ``odolab ...`` call; stdout is captured and checked."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = odolab.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return ["odolab %s exited %d" % (argv[0], code)]
        report = json.loads(text)["report"]
        return ["cli %s: %s = %r, expected %r" % (argv[0], key, report.get(key), want)
                for key, want in expected.items() if report.get(key) != want]

    def verdict(result):
        code, text = result
        report = json.loads(text)["report"] if code == 0 else {}
        return code, sorted((k, v) for k, v in report.items() if isinstance(v, (bool, int)))

    return Op("cli." + argv[0], sym.n, sym.d, depth, run=run, check=check, verdict=verdict)


def cli_common(depth):
    return ["--depth", str(depth), "--tol-exact", repr(EPS_EXACT), "--tol-rank", repr(EPS_RANK),
            "--grid", str(GRID), "--seed", "0", "--format", "json"]


# ---------------------------------------------------------------------------
# classify-mix


CLASSIFY_GALLERY = [
    # (entry, parameters, depth); series entries use R <= 4 because the
    # default R (40 or 12) pushes the codomain depth D + R past the basis cap
    ("shift", {"k": 1, "n": 2, "d": 1}, 7),
    ("shift", {"k": 1, "n": 2, "d": 1}, 9),
    ("shift", {"k": 2, "n": 2, "d": 2}, 6),
    ("shift", {"k": 3, "n": 1, "d": 1}, 40),
    ("shift", {"k": 1, "n": 3, "d": 1}, 4),
    ("vacuum", {"d": 2, "n": 2}, 6),
    ("vacuum", {"phases": (1.0, 1j), "n": 2}, 6),
    ("diagonal", {"d": 3, "n": 2}, 6),
    ("diagonal", {"d": 2, "n": 3}, 4),
    ("projection", {"d": 3, "rank": 2, "n": 2}, 6),
    ("moebius", {"R": 4, "n": 2}, 7),
    ("moebius", {"R": 4, "n": 1}, 48),
    ("blaschke", {"R": 4, "n": 2}, 7),
    ("resolvent_shift", {"d": 3, "R": 2, "n": 2}, 6),
    ("constant_plus_shift", {"a": 0.5, "n": 2, "d": 1}, 7),
    # det(1 + z) vanishes on the circle, so the winding certificate refuses
    ("hypo_counterexample", {"n": 2}, 7),
]

CLASSIFY_RANDOM = [  # (n, d, K, entries, depth)
    (1, 1, 3, 5, 24),
    (1, 2, 2, 6, 16),
    (2, 1, 2, 5, 6),
    (2, 2, 2, 6, 5),
    (3, 1, 2, 5, 4),
    (3, 2, 1, 5, 3),
]

CLASSIFY_INNER = [  # (n, ks, depth)
    (1, (1, 0, 2), 32),
    (2, (0, 1), 6),
    (3, (1, 1), 4),
    (2, (0, 0), 6),
]


def classify_mix(rng, workdir):
    ops = []
    for name, params, depth in CLASSIFY_GALLERY:
        sym, expected = gallery_entry(name, params)
        ops.append(classify_op(sym, depth, expected))
    for n, d, k, count, depth in CLASSIFY_RANDOM:
        ops.append(classify_op(random_symbol(rng, n, d, k, count), depth, {}))
    inner = [inner_symbol(rng, n, ks) + (depth,) for n, ks, depth in CLASSIFY_INNER]
    for sym, expected, depth in inner:
        ops.append(classify_op(sym, depth, expected))

    # Coburn floors on isometric symbols; N = 511 for the n = 2 shift at depth 8
    ops.append(coburn_op(gallery_entry("shift", {"k": 1, "n": 2, "d": 1})[0], 8))
    ops.append(coburn_op(inner[1][0], 6))
    ops.append(run_all_op())

    sym, expected, _ = inner[1]
    path = os.path.join(workdir, "inner.json")
    odolab.save_symbol(sym, path)
    cli_expect = {"isometric": True, "defect_dim": expected["defect_dim"],
                  "invertible": expected["invertible"], "mult_wl": expected["mult"]}
    ops.append(cli_op(["classify", path, "--invertibility"] + cli_common(5), sym, 5, cli_expect))
    diag, diag_expected = gallery_entry("diagonal", {"d": 3, "n": 2})
    ops.append(cli_op(["defect", "--gallery", "diagonal", "--param", "d=3", "--param", "n=2"] + cli_common(6),
                      diag, 6, {"defect_dim": diag_expected["defect_dim"], "stable": True}))
    moeb, _ = gallery_entry("moebius", {"R": 3, "n": 2})
    ops.append(cli_op(["norm", "--gallery", "moebius", "--param", "R=3", "--param", "n=2"] + cli_common(6),
                      moeb, 6, {"applicable": True}))
    return ops


# ---------------------------------------------------------------------------
# deep-build


DEEP_CASES = [  # (symbol spec, depth); 2**15 - 1 = 32 767 columns at n = 2, depth 14
    (("random", 2, 1, 2, 4), 11),
    (("random", 2, 2, 1, 5), 12),
    (("shift", {"k": 2, "n": 2, "d": 1}), 12),
    (("random", 2, 1, 1, 4), 13),
    (("shift", {"k": 1, "n": 2, "d": 1}), 14),
    (("random", 3, 1, 1, 4), 8),
    (("shift", {"k": 1, "n": 3, "d": 1}), 9),
]


def deep_case(sym, depth):
    """Build, adjoint, chain block, both cross-check gaps, and the norm past
    the dense limit; later calls read what earlier ones built."""
    n, d, k = sym.n, sym.d, sym.K
    state = {}
    dom = d * fock.word_count(n, depth)
    cod = d * fock.word_count(n, depth + k)

    def build():
        state["w"] = odolab.operator.build_wl(sym, depth)
        return state["w"]

    def adjoint():
        state["star"] = odolab.operator.build_wl_adjoint(sym, depth + k)
        return state["star"]

    def adjoint_gap():
        w, star = state["w"], state.pop("star")
        ct = w.conjugate_transpose()
        rows = star.restrict_rows(w.domain.size)
        return ct.max_abs_diff(FockOperator(rows.domain, ct.codomain, rows.data))

    def chain_block():
        state["b"] = odolab.operator.block(state["w"], SubspaceSelector.M_PERP, SubspaceSelector.N_PERP)
        return state["b"]

    def toeplitz_gap():
        transported = odolab.operator.hardy_block_matrix(state.pop("b"))
        cut = transported[: (depth + 1) * d, :]
        t = odolab.operator.toeplitz_truncation(sym.theta(), depth + 1)
        return float(np.max(np.abs(cut - t)))

    def norm():
        state.clear()
        return odolab.analysis.norm_report(sym, depth, grid=GRID, tol=TOL)

    def shape_check(want):
        return lambda w: [] if w.shape == want else ["shape %r, expected %r" % (w.shape, want)]

    def gap_check(gap):
        return [] if gap <= GAP else ["cross-check gap %.3e > %.0e" % (gap, GAP)]

    isometric = odolab.analysis.isometry_deviation(sym, TOL) <= EPS_EXACT

    def norm_check(rep):
        errs = check_norm(rep)
        if isometric and abs(rep.sigma_max - 1.0) > 1e-8:
            errs.append("isometry with sigma_max %.12g" % rep.sigma_max)
        return errs

    def op(kind, run, check, verdict):
        return Op(kind, n, d, depth, run=run, check=check, verdict=verdict)

    shape_nnz = lambda w: (w.shape, w.nnz)  # noqa: E731
    return [
        op("build_wl", build, shape_check((cod, dom)), shape_nnz),
        op("build_wl_adjoint", adjoint, shape_check((cod, cod)), shape_nnz),
        op("adjoint_gap", adjoint_gap, gap_check, lambda gap: gap <= GAP),
        op("block", chain_block, shape_check(((depth + k + 1) * d, (depth + 1) * d)), shape_nnz),
        op("toeplitz_gap", toeplitz_gap, gap_check, lambda gap: gap <= GAP),
        op("norm_report", norm, norm_check, lambda rep: rep.applicable),
    ]


def deep_build(rng, workdir):
    ops = []
    for spec, depth in DEEP_CASES:
        if spec[0] == "random":
            sym = random_symbol(rng, *spec[1:])
        else:
            sym = gallery_entry(*spec)[0]
        ops.extend(deep_case(sym, depth))
    return ops


# ---------------------------------------------------------------------------
# chain-deep


CHAIN_CASES = [  # (symbol spec, depth); every symbol lives on the 1-chain
    (("shift", {"k": 3, "n": 1, "d": 1}), 200),
    (("shift", {"k": 2, "n": 2, "d": 1}), 128),
    (("diagonal", {"d": 3, "n": 1}), 96),
    (("inner", 1, (1, 2)), 128),
    (("inner", 2, (0, 1, 1)), 64),
    (("inner", 1, (2,)), 256),
    (("shift", {"k": 2, "n": 1, "d": 2}), 64),
]


def chain_ops(sym, depth, expected):
    want = expected["defect_dim"]

    def dws_check(result):
        here, stable, below = result
        errs = []
        _expect(errs, "defect_dim", here.dim, want)
        _expect(errs, "defect_dim vs kernel_dim", here.stacked_kernel_dim, here.dim)
        _expect(errs, "stable", stable, True)
        return errs

    def dws_verdict(result):
        here, stable, below = result
        return here.dim, stable, below, here.el_dim, here.stacked_kernel_dim, here.el_minus_range_dim

    def op(kind, run, check, verdict):
        return Op(kind, sym.n, sym.d, depth, run=run, check=check, verdict=verdict)

    ops = [op("defect_with_stability",
              lambda: odolab.analysis.defect_with_stability(sym, depth, TOL), dws_check, dws_verdict)]
    if expected.get("isometric_exact"):
        ops.append(op("fredholm_index", lambda: odolab.analysis.fredholm_index(sym, depth, TOL),
                      lambda idx: [] if idx == -want else ["index %r, expected %d" % (idx, -want)],
                      lambda idx: idx))
        ops.append(op("wold_multiplicity", lambda: odolab.analysis.wold_multiplicity(sym, depth, TOL),
                      lambda m: [] if m == (want, want) else ["multiplicities %r, expected %d" % (m, want)],
                      lambda m: m))
    return ops


def chain_deep(rng, workdir):
    ops = []
    for spec, depth in CHAIN_CASES:
        if spec[0] == "inner":
            sym, expected = inner_symbol(rng, *spec[1:])
        else:
            sym, expected = gallery_entry(*spec)
        ops.extend(chain_ops(sym, depth, expected))
    # 1 + z/2 is outer: no defect, and the map is not an isometry
    sym, _ = gallery_entry("constant_plus_shift", {"a": 0.5, "n": 1, "d": 1})
    ops.extend(chain_ops(sym, 160, {"defect_dim": 0}))
    return ops


WORKLOADS = {
    "classify-mix": classify_mix,
    "deep-build": deep_build,
    "chain-deep": chain_deep,
}


def build(name, seed, workdir):
    """The workload's pass for this seed; same seed, same inputs."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir)
