# tests/test_point_pass.py
"""The one blocked value pass over PG(dim-1, q) (geometry._point_values)
against whole-space references: the filter and classification that built
all of PG(2n, q) at once, and the equation counts over every vector of
F_q^w.  The references are the slower code the pass replaced, kept here as
oracles."""
import tracemalloc

import numpy as np
import pytest

from polargrass import code, counting, forms, geometry
from polargrass.counting import case1_equation_counts, even_orbit_closed, even_orbit_empirical, kappa_closed
from polargrass.errors import DimensionMismatch, InadmissibleParams
from polargrass.field import field_ctx
from polargrass.forms import (
    AlternatingForm,
    admissible_pairs,
    canonical_form,
    elliptic_gram,
    hyperbolic_gram,
    projective_points,
    radical_split,
    standard_space,
)
from polargrass.geometry import (
    empirical_census,
    isotropic_line_count,
    line_type_codes,
    orbit_counts,
    quadric_point_bytes,
    quadric_points,
    residue_classes,
    tau_values,
)

# the whole-space references build all of PG(2n, q), so n = 3 only where
# that stays small (PG(6, 9) has 597,871 points; PG(6, 25) 254 million)
SPACES = [(2, 3), (2, 5), (2, 9), (2, 25), (2, 27), (3, 3), (3, 5), (3, 9)]
SECTIONS = [(t, q) for q in (3, 5, 9) for t in (1, 2, 3)] + [(t, q) for q in (25, 27) for t in (1, 2)]


def reference_points_and_orbits(qs):
    """The singular points and orbit counts from all of PG(2n, q) at once."""
    ctx = qs.ctx
    pts = projective_points(ctx, qs.dim)
    vals = ctx.np_quad_eval(qs.gram, pts)
    nonzero = vals != 0
    sq = ctx.np_is_square(vals) & nonzero
    ext = ctx.np_is_square(ctx.np_mul(np.int64(qs.disc_sign), vals)) & nonzero
    return pts[vals == 0], {
        "singular": int((~nonzero).sum()),
        "internal": int((nonzero & ~ext).sum()),
        "external": int(ext.sum()),
        "eta_square": int(sq.sum()),
        "eta_nonsquare": int((nonzero & ~sq).sum()),
    }


def reference_even_orbits(ctx, t, kind):
    gram = hyperbolic_gram(ctx, t) if kind == "hyperbolic" else elliptic_gram(ctx, t - 1)
    vals = ctx.np_quad_eval(gram, projective_points(ctx, 2 * t))
    nonzero = vals != 0
    sq = ctx.np_is_square(vals) & nonzero
    return {"singular": int((~nonzero).sum()), "square": int(sq.sum()), "nonsquare": int((nonzero & ~sq).sum())}


def all_vectors(q, width):
    """Every vector of F_q^width, in base-q order."""
    return np.arange(q**width, dtype=np.int64)[:, None] // q ** np.arange(width - 1, -1, -1, dtype=np.int64) % q


def reference_equation_counts(ctx, n, r, d, beta):
    """Both residual equation counts over every vector of F_q^w."""
    q, half = ctx.q, (r - d) // 2
    width = 1 + (r - d)
    gram = np.zeros((width, width), dtype=np.int64)
    gram[0, 0] = 1
    gram[1:, 1:] = hyperbolic_gram(ctx, half)
    vals = ctx.np_quad_eval(gram, all_vectors(q, width))
    nu = forms._case_nu(n, r, d, 1)
    gram2 = np.zeros((1 + 2 * nu, 1 + 2 * nu), dtype=np.int64)
    gram2[0, 0] = ctx.neg(1)
    gram2[1:, 1:] = hyperbolic_gram(ctx, nu)
    vecs2 = all_vectors(q, 1 + 2 * nu)
    vals2 = ctx.np_quad_eval(gram2, vecs2[vecs2[:, 0] != 0])
    return {
        "target_count": int((vals == ctx.mul(beta, beta)).sum()),
        "target_closed": q**half * (q**half + 1),
        "negsquare_count": int((ctx.np_is_square(ctx.np_neg(vals2)) & (vals2 != 0)).sum()),
    }


def small_blocks(monkeypatch):
    # 256 entries a block: 8 rows at dim 5, so PG(4, q) splits into many
    # blocks with a partial last one
    monkeypatch.setattr(geometry, "PAIR_BLOCK_ENTRIES", 1 << 12)


@pytest.mark.parametrize("n,q", SPACES)
def test_points_and_orbits_match_the_whole_space(n, q):
    qs = standard_space(field_ctx(q), n)
    pts, orbits = reference_points_and_orbits(qs)
    assert quadric_points(qs).dtype == np.int64
    assert np.array_equal(quadric_points(qs), pts)
    assert orbit_counts(qs) == orbits


@pytest.mark.parametrize("q", [3, 5])
def test_points_and_orbits_of_every_shape_space(q):
    ctx = field_ctx(q)
    for case in forms.CASES:
        for r, d in admissible_pairs(2, case):
            qs = canonical_form(ctx, 2, r, d, case)[0]
            pts, orbits = reference_points_and_orbits(qs)
            assert np.array_equal(quadric_points(qs), pts)
            assert orbit_counts(qs) == orbits


@pytest.mark.parametrize("t,q", SECTIONS)
def test_even_sections_match_the_whole_space(t, q):
    ctx = field_ctx(q)
    for kind in ("hyperbolic", "elliptic"):
        assert even_orbit_empirical(ctx, t, kind) == reference_even_orbits(ctx, t, kind)


@pytest.mark.parametrize("n,q", SPACES)
def test_equation_counts_match_every_vector(n, q):
    ctx = field_ctx(q)
    for r, d in admissible_pairs(n, 1):
        for beta in (1, ctx.nonsquare_rep):
            assert case1_equation_counts(ctx, n, r, d, beta) == reference_equation_counts(ctx, n, r, d, beta)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 9), (3, 3)])
def test_many_blocks_match_the_whole_space(monkeypatch, n, q):
    small_blocks(monkeypatch)
    ctx = field_ctx(q)
    dim = 2 * n + 1
    count = (q**dim - 1) // (q - 1)
    rows = geometry._block_rows(6 * dim, dim * dim)
    assert count // rows > 10 and count % rows
    qs = standard_space(ctx, n)
    pts, orbits = reference_points_and_orbits(qs)
    assert np.array_equal(quadric_points(qs), pts)
    assert orbit_counts(qs) == orbits
    for kind in ("hyperbolic", "elliptic"):
        assert even_orbit_empirical(ctx, n, kind) == reference_even_orbits(ctx, n, kind)
    for r, d in admissible_pairs(n, 1):
        assert case1_equation_counts(ctx, n, r, d, 1) == reference_equation_counts(ctx, n, r, d, 1)
    # a pass from a point off a block boundary
    every = projective_points(ctx, dim)
    lo = rows + 3
    blocks = list(geometry._point_values(ctx, qs.gram, lo))
    assert np.array_equal(np.concatenate([p for p, _ in blocks]), every[lo:])
    assert np.array_equal(np.concatenate([v for _, v in blocks]), ctx.np_quad_eval(qs.gram, every[lo:]))
    hist = geometry._value_histogram(ctx, qs.gram, lo)
    assert hist.tolist() == np.bincount(ctx.np_quad_eval(qs.gram, every[lo:]), minlength=q).tolist()


def test_one_pass_per_space(monkeypatch):
    passes = []
    point_values = geometry._point_values

    def spy(ctx, gram, lo=0):
        passes.append(len(gram))
        return point_values(ctx, gram, lo)

    monkeypatch.setattr(geometry, "_point_values", spy)
    qs = standard_space(field_ctx(3), 3)
    quadric_points(qs)
    orbit_counts(qs)
    assert passes == [7]
    qs = standard_space(field_ctx(3), 3)
    orbit_counts(qs)
    quadric_points(qs)
    orbit_counts(qs)
    assert passes == [7, 7]


@pytest.mark.parametrize("n,q", [(4, 5), (5, 3)])
def test_point_estimate_tracks_the_pass_peak(n, q):
    qs = standard_space(field_ctx(q), n)
    tracemalloc.start()
    try:
        quadric_points(qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= quadric_point_bytes(n, q) / peak <= 1.5


@pytest.mark.parametrize(
    "call",
    [
        lambda: kappa_closed(-1, 3),
        lambda: even_orbit_closed(0, 3, "hyperbolic"),
        lambda: even_orbit_closed(0, 3, "elliptic"),
        lambda: even_orbit_closed(-1, 3, "elliptic"),
        lambda: even_orbit_empirical(field_ctx(3), 0, "hyperbolic"),
        lambda: even_orbit_empirical(field_ctx(3), 0, "elliptic"),
        lambda: even_orbit_empirical(field_ctx(3), -1, "hyperbolic"),
    ],
    ids=["kappa-n-1", "closed-hyp-t0", "closed-ell-t0", "closed-ell-t-1", "emp-hyp-t0", "emp-ell-t0", "emp-hyp-t-1"],
)
def test_orbit_formulas_refuse_outside_their_domain(call):
    # these returned zero or negative counts, floats or an IndexError
    with pytest.raises(InadmissibleParams, match=r"need [nt] >= [01], got -?\d"):
        call()


def test_orbit_formulas_at_the_edge_of_their_domain():
    assert kappa_closed(0, 3) == {"singular": 0, "internal": 0, "external": 1}
    ctx = field_ctx(3)
    for kind in ("hyperbolic", "elliptic"):
        emp, closed = even_orbit_empirical(ctx, 1, kind), even_orbit_closed(1, 3, kind)
        assert emp["singular"] == closed["singular"]
        assert emp["square"] == emp["nonsquare"] == closed["per_class"]
        assert all(isinstance(v, int) for v in closed.values())


@pytest.mark.parametrize(
    "call",
    [
        lambda qs, af, code_: radical_split(qs, af),
        lambda qs, af, code_: residue_classes(qs, af),
        lambda qs, af, code_: empirical_census(qs, af),
        lambda qs, af, code_: isotropic_line_count(qs, af),
        lambda qs, af, code_: tau_values(qs, af),
        lambda qs, af, code_: line_type_codes(qs, af),
        lambda qs, af, code_: code.codeword_from_form(code_, af),
        lambda qs, af, code_: counting._eigenvector_counts(qs, [af]),
    ],
    ids=["radical_split", "residue_classes", "empirical_census", "isotropic_line_count", "tau_values",
         "line_type_codes", "codeword_from_form", "eigenvector_counts"],
)
def test_single_form_functions_reject_another_dimension(call):
    ctx = field_ctx(3)
    qs = standard_space(ctx, 3)
    s = np.zeros((5, 5), dtype=np.int64)
    s[0, 1], s[1, 0] = 1, ctx.neg(1)
    with pytest.raises(DimensionMismatch):
        call(qs, AlternatingForm(ctx, s), code.build_code(qs))

