"""Spans around calls into polargrass's layers, recorded from outside.

`Tracer.install` rebinds the module attributes, class attributes and
`counting.CHECKS` entries that callers look up at call time, so every call
into a traced entry point records a span; `Tracer.uninstall` puts the
originals back.  Nothing under src/ changes.  Spans stay in memory as
[name, parent index, phase, start, end, note] until the benchmark writes
them out.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# Checks whose self time is reported per check (counting.<check>_s).
REPORTED_CHECKS = (
    "census-all",
    "line-count-identity",
    "line-type-census",
    "eigenvector-bound",
    "delta-bound",
    "canonical-weight",
)


def _weights_note(code, batch):
    return (int(batch.shape[0]), code.params.K, code.params.N)


def _lines_note(qs):
    return "lines" in qs._cache


def _targets():
    """(span name, owner, attribute, note) for every traced entry point."""
    from polargrass import code, counting, field, forms, geometry, matrix

    return [
        ("code.weights", code, "_weights_np", _weights_note),
        ("code.scan", code, "min_distance_exact", None),
        ("code.scan", code, "min_distance_certified", None),
        ("code.build", code, "build_code", None),
        ("code.codeword", code, "codeword_from_form", None),
        ("geometry.points", geometry, "quadric_points", None),
        ("geometry.lines", geometry, "enumerate_singular_lines", _lines_note),
        ("geometry.members", geometry.LineSet, "members", None),
        ("geometry.residue", geometry, "residue_classes", None),
        ("geometry.isotropic", geometry, "isotropic_line_count", None),
        ("geometry.isotropic", geometry, "tau_values", None),
        ("geometry.line_types", geometry, "line_type_codes", None),
        ("matrix.rank_np", matrix, "rank_np", None),
        ("matrix.rref", matrix, "rref", None),
        ("forms.canonical_form", forms, "canonical_form", None),
        ("forms.radical_split", forms, "radical_split", None),
        ("forms.projective_points", forms, "projective_points", None),
        ("field.ctx", field.FieldCtx, "__init__", None),
        ("counting.run_checks", counting, "run_checks", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """fn with a span recorded around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.phase, 0.0, 0.0,
                   note(*args, **kwargs) if note else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced entry point, in every polargrass module that
        holds a reference to it."""
        from polargrass import counting

        modules = [m for k, m in sys.modules.items() if k == "polargrass" or k.startswith("polargrass.")]
        for name, owner, attr, note in _targets():
            original = getattr(owner, attr)
            traced = self.wrap(name, original, note)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, traced)
        for check, fn in list(counting.CHECKS.items()):
            self._patches.append((counting.CHECKS, check, fn))
            counting.CHECKS[check] = self.wrap(f"counting.{check}", fn)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [rec[4] - rec[3] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            out[rec[1]] -= rec[4] - rec[3]
    return out


def layer_metrics(spans: list[list], phases: set[str]) -> dict[str, float]:
    """Per-layer metrics over the spans of the given phases; an idle layer
    reports 0."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    for rec, s in zip(spans, selfs):
        if rec[2] in phases:
            self_s[rec[0]] += s
            calls[rec[0]] += 1
            if rec[5] is not None:
                notes[rec[0]].append(rec[5])
    batches = notes["code.weights"]  # (rows, K, N) per kernel call
    lines_cached = sum(notes["geometry.lines"])
    m = {
        "code.weights_self_s": self_s["code.weights"],
        "code.weights_calls": calls["code.weights"],
        "code.weights_msgs": sum(r for r, _, _ in batches),
        "code.weights_madds": sum(r * k * n for r, k, n in batches),
        "code.weights_bytes": sum(r * n * 8 for r, _, n in batches),
        "code.weights_max_chunk_mb": max((r * n * 8 for r, _, n in batches), default=0) / 2**20,
        "code.scan_self_s": self_s["code.scan"],
        "code.build_self_s": self_s["code.build"],
        "code.codeword_s": self_s["code.codeword"],
        "geometry.points_s": self_s["geometry.points"],
        "geometry.lines_s": self_s["geometry.lines"],
        "geometry.lines_calls": calls["geometry.lines"],
        "geometry.lines_cache_hit_ratio": lines_cached / calls["geometry.lines"] if calls["geometry.lines"] else 0,
        "geometry.members_s": self_s["geometry.members"],
        "geometry.residue_s": self_s["geometry.residue"],
        "geometry.isotropic_s": self_s["geometry.isotropic"],
        "geometry.line_types_s": self_s["geometry.line_types"],
        "matrix.rank_np_s": self_s["matrix.rank_np"],
        "matrix.rank_np_calls": calls["matrix.rank_np"],
        "matrix.rref_s": self_s["matrix.rref"],
        "matrix.rref_calls": calls["matrix.rref"],
        "forms.canonical_form_s": self_s["forms.canonical_form"],
        "forms.canonical_form_calls": calls["forms.canonical_form"],
        "forms.radical_split_s": self_s["forms.radical_split"],
        "forms.projective_points_s": self_s["forms.projective_points"],
        "field.ctx_s": self_s["field.ctx"],
    }
    for check in REPORTED_CHECKS:
        m[f"counting.{check}_s"] = self_s[f"counting.{check}"]
    m["cli.self_s"] = self_s["cli.main"]
    return m


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced units of work."""
    return {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
