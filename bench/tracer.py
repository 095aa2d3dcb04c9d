"""Span tracer that times odolab's layers from outside the library.

The tracer rebinds public functions in every odolab module namespace that
holds them (``analysis``, ``verify`` and ``cli`` import names such as
``build_wl`` directly) and wraps class attributes such as
``FockOperator.to_csr``.  Each wrapped call records a span: name, start,
end, parent span and the id of the benchmark operation that caused it.
Spans stay in memory until ``write_spans``.  ``uninstall`` restores every
binding it changed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module suffix, attribute, span name); the span name plus "_s" is the
# per-layer self-time metric
FUNCTION_SPANS = [
    ("operator", "build_wl", "operator.build_wl"),
    ("operator", "build_wl_adjoint", "operator.build_wl_adjoint"),
    ("operator", "block", "operator.block"),
    ("operator", "hardy_block_matrix", "operator.hardy_block_matrix"),
    ("analysis", "classify", "analysis.classify_self"),
    ("analysis", "coburn_bound", "analysis.coburn"),
    ("analysis", "norm_report", "analysis.norm_report"),
    ("analysis", "defect", "analysis.defect"),
    ("analysis", "hyponormality_probe", "analysis.hypo"),
    ("numerics", "numerical_rank", "numerics.rank"),
    ("numerics", "orthocomplement_basis", "numerics.orthocomplement"),
    ("numerics", "winding_number", "numerics.winding"),
    ("symbol", "is_inner_exact", "symbol.inner"),
    ("symbol", "is_invertible_hinf", "symbol.invertible"),
    ("symbol", "sup_norm", "symbol.sup_norm"),
    ("verify", "run_suite", "verify.suite"),
    ("cli", "main", "cli.main"),
]

# (module suffix, class, attribute, span name)
METHOD_SPANS = [
    ("fock", "BasisIndex", "__init__", "fock.basis"),
    ("operator", "FockOperator", "to_csr", "operator.to_csr"),
    ("operator", "FockOperator", "toarray", "operator.toarray"),
    ("operator", "FockOperator", "sigma_max", "operator.sigma_max"),
]

SPAN_NAMES = [name for _, _, name in FUNCTION_SPANS] + [name for *_, name in METHOD_SPANS]


def symbol_key(sym):
    return (sym.n, sym.d, frozenset(sym.entries.items()))


class Tracer:
    def __init__(self):
        self.spans = []  # (call_id, parent_id, op_id, name, start, end)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(list)  # span name -> argument keys, one per call
        self.op_id = 0
        self.pass_index = 0
        self._stack = []  # [call_id, child_seconds]
        self._next_id = 0
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def call(self, name, fn, args, kwargs):
        call_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [call_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((call_id, parent, self.op_id, name, start, end))

    def _wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that record counts -----------------------------------------

    def _basis_done(self, args, kwargs, result):
        self.counts["fock.basis_columns"] += args[0].size

    def _built(self, args, kwargs, result):
        self.counts["operator.nnz"] += result.nnz

    def _build_wl_called(self, args, kwargs):
        sym, depth = args[0], args[1]
        codomain = args[2] if len(args) > 2 else kwargs.get("codomain_depth")
        self.keys["operator.build_wl"].append((self.pass_index, symbol_key(sym), depth, codomain))

    def _defect_called(self, args, kwargs):
        self.keys["analysis.defect"].append((self.pass_index, symbol_key(args[0]), args[1]))

    def _svd(self, a, *args, **kwargs):
        # numerics.dense_cells is computed from shapes, not measured
        self.counts["numerics.dense_cells"] += int(np.asarray(a).size)
        return self._orig_svd(a, *args, **kwargs)

    def _to_csr(self, fn):
        tracer = self

        def to_csr(op):
            if "scipy.sparse" not in sys.modules:
                tracer.call("operator.scipy_import", _import_scipy_sparse, (), {})
            return fn(op)

        return to_csr

    # -- install / uninstall ----------------------------------------------

    def install(self, odolab):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "odolab" or k.startswith("odolab.")]
        hooks = {
            "operator.build_wl": (self._build_wl_called, self._built),
            "operator.build_wl_adjoint": (None, self._built),
            "analysis.defect": (self._defect_called, None),
        }
        for suffix, attr, name in FUNCTION_SPANS:
            home = getattr(odolab, suffix)
            orig = getattr(home, attr)
            on_call, on_result = hooks.get(name, (None, None))
            wrapper = self._wrap(name, orig, on_call, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, wrapper)
        for suffix, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(getattr(odolab, suffix), cls_name)
            orig = cls.__dict__[attr]
            fn = self._to_csr(orig) if attr == "to_csr" else orig
            on_result = self._basis_done if name == "fock.basis" else None
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, fn, None, on_result))
        self._orig_svd = np.linalg.svd
        self._restore.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._svd

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- reports ----------------------------------------------------------

    def distinct_ratio(self, name):
        """Distinct (pass, symbol, depth) keys over all calls; 1 when
        nothing was called."""
        keys = self.keys[name]
        return len(set(keys)) / len(keys) if keys else 1.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for call_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": call_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")


def _import_scipy_sparse():
    import scipy.sparse  # noqa: F401  (timed: the lazy import inside to_csr)
