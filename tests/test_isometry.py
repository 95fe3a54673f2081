# tests/test_isometry.py
"""verify carries the canonical form of every shape onto the standard space
through forms.isometries.  Here the carried forms are compared with the
forms on their own block-adapted spaces, the isometries are checked on
random Gram matrices over prime and extension fields, and a failed
reduction is shown to raise, never to pass or to read as a mismatch."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polargrass import counting, forms, geometry
from polargrass.cli import main
from polargrass.errors import PolargrassError
from polargrass.field import field_ctx
from polargrass.forms import canonical_form, standard_space
from polargrass.geometry import LINE_TYPE_NAMES
from polargrass.matrix import determinants


def native_data(ctx, n, case, r, d):
    """The per-form data of a canonical form on its own space, through the
    single-form functions."""
    qs, af = canonical_form(ctx, n, r, d, case)
    census = geometry.empirical_census(qs, af)
    return {
        "census": (census.a_radical, census.a_eigen, census.n_zero, census.n_plus, census.n_minus),
        "isotropic": geometry.isotropic_line_count(qs, af),
        "types": np.bincount(geometry.line_type_codes(qs, af), minlength=len(LINE_TYPE_NAMES)).tolist(),
        "split": forms.radical_split(qs, af),
        "eigen": int(counting._eigenvector_counts(qs, [af])[0]),
    }


def carried_data(table, i):
    """The same data of entry i, a carried form, read from row i of the
    form table's columns on the standard space."""
    masks = table.rows(geometry._isotropic_stack)
    return {
        "census": tuple(table.censuses[i].tolist()),
        "isotropic": int(np.unpackbits(masks, axis=1, count=len(table.entries))[:, i].sum()),
        "types": table.line_types[i].tolist(),
        "split": forms._split(table.space, table.rows(forms._radical_splits)[i]),
        "eigen": int(table.rows(counting._eigenvector_counts)[i]),
    }


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5), (4, 3), (2, 9), (2, 27)])
def test_carried_forms_match_their_native_shapes(n, q):
    ctx = field_ctx(q)
    table = counting.FormTable(n, q)
    shapes = [(case, r, d) for case in (1, 2, 3, 4) for r, d in forms.admissible_pairs(n, case)]
    assert [entry[:3] for entry in table.canonical] == shapes
    for i, (case, r, d, af) in enumerate(table.canonical):
        assert af.dim == table.space.dim
        assert carried_data(table, i) == native_data(ctx, n, case, r, d), (case, r, d)


@st.composite
def scaled_grams(draw):
    """(space, M): the standard space and c P M_0 P^T for a random
    invertible P and nonzero c."""
    q = draw(st.sampled_from([3, 5, 7, 9, 25, 27]))
    n = draw(st.sampled_from([2, 3, 4]))
    ctx, rng = field_ctx(q), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qs = standard_space(ctx, n)
    while True:
        p = rng.integers(0, q, size=(qs.dim, qs.dim))
        if determinants(ctx, p) != 0:
            break
    c = draw(st.integers(1, q - 1))
    return qs, ctx.np_mul(c, ctx.np_matmul(ctx.np_matmul(p, qs.gram), p.T))


@given(scaled_grams())
@settings(max_examples=60, deadline=None)
def test_isometry_of_a_random_gram(case):
    qs, m = case
    ctx, t = qs.ctx, qs.n
    # every step of the Witt reduction found a singular vector in its plane:
    # the e and f rows are singular pairs and W is a basis
    w, delta = forms._witt_bases(ctx, m[None])
    witt = ctx.np_matmul(ctx.np_matmul(w[0], m), w[0].T)
    want = forms.hyperbolic_gram(ctx, t)
    assert np.array_equal(witt[: 2 * t, : 2 * t], want)
    assert not witt[-1, :-1].any() and witt[-1, -1] == delta[0] != 0
    assert determinants(ctx, w[0]) != 0
    a, c = forms.isometries(qs, m[None])
    assert c[0] != 0 and determinants(ctx, a[0]) != 0
    assert np.array_equal(ctx.np_matmul(ctx.np_matmul(a[0], m), a[0].T), ctx.np_mul(c[0], qs.gram))


def test_a_wrong_isometry_raises_and_verify_exits_2(monkeypatch, capsys):
    witt_bases = forms._witt_bases

    def scaled(ctx, grams):
        # doubling every delta but the last, the standard one, doubles c
        # while the hyperbolic pairs keep their scale
        w, delta = witt_bases(ctx, grams)
        delta[:-1] = ctx.np_mul(2, delta[:-1])
        return w, delta

    monkeypatch.setattr(forms, "_witt_bases", scaled)
    qs = standard_space(field_ctx(3), 2)
    with pytest.raises(PolargrassError, match="no isometry onto the standard space"):
        forms.isometries(qs, qs.gram[None])
    assert main(["verify", "--q", "3", "--n", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: a Witt reduction gave no isometry onto the standard space\n"


def test_a_plane_without_a_singular_point_raises(monkeypatch):
    # only the point (0, 1, 0): the standard Gram's second row has value 1
    monkeypatch.setattr(forms, "projective_block", lambda q, dim, lo, hi: np.array([[0, 1, 0]]))
    qs = standard_space(field_ctx(3), 2)
    with pytest.raises(PolargrassError, match="no singular point"):
        forms.isometries(qs, qs.gram[None])
