"""Kronecker blocks, rank profiles, containment checks, max-rank reduction."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trlab.pencils as pencils_mod
from oracles import radical_restriction_vanishes
from trlab.errors import CapExceeded, InputError
from trlab.forms import gen_from_matrix
from trlab.gfq import field_new
from trlab.linalg import Matrix, Subspace, field_dot, kernel_basis, rank
from trlab.pencils import (Pencil, kernel_image_check, kronecker_block,
                           max_rank_reduction, pencil_from_obj, pencil_to_obj,
                           radical_restriction_check, rank_profile)
from trlab.ranks import slice_rank_exact, subspace_rank_exact

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def all_elements_diagonal_pencil(q):
    """A = diag(all field elements in encoding order), B = identity."""
    ctx = field_new(q, 1)
    a = Matrix(ctx, np.diag(np.arange(q, dtype=np.int64)))
    return Pencil(a, Matrix.identity(ctx, q))


def test_kronecker_block_shapes_and_entries():
    p = kronecker_block(F2, "Ln", 1)
    assert p.a.data.tolist() == [[1], [0]]
    assert p.b.data.tolist() == [[0], [1]]
    t = kronecker_block(F2, "Ln_transpose", 1)
    assert t.a.data.tolist() == [[1, 0]]
    assert t.b.data.tolist() == [[0, 1]]
    empty = kronecker_block(F2, "Ln", 0)
    assert empty.a.data.shape == (1, 0)
    with pytest.raises(InputError):
        kronecker_block(F2, "bogus", 1)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["Ln", "Ln_transpose"])
def test_kronecker_blocks_have_full_rank_everywhere(q, kind):
    ctx = field_new(q, 1)
    for n in range(1, 5):
        pen = kronecker_block(ctx, kind, n)
        for e in (1, 2, 3):
            prof = rank_profile(pen, e)
            assert len(prof.points) == q ** e + 1
            assert all(r == n for _, r in prof.points)


def test_rank_profile_identity_and_zero():
    pen = Pencil(Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 2))
    prof = rank_profile(pen, 1)
    assert tuple(r for _, r in prof.points[:-1]) == (2, 2)
    assert prof.points[-1][1] == 0


def test_rank_profile_counterexample_q2():
    pen = Pencil(Matrix(F2, [[0, 0], [0, 1]]), Matrix.identity(F2, 2))
    prof = rank_profile(pen, 1)
    assert tuple(r for _, r in prof.points[:-1]) == (1, 1)
    assert prof.points[-1][1] == 2


def test_rank_profile_cap():
    with pytest.raises(CapExceeded):
        rank_profile(kronecker_block(F2, "Ln", 2), 20, cap=100)


@pytest.mark.parametrize("check", [
    lambda pen, e: kernel_image_check(pen, e),
    lambda pen, e: radical_restriction_check(pen.a, pen.b, e),
], ids=["kernel_image", "radical_restriction"])
def test_line_checks_refuse_past_the_profile_cap_before_the_field(check, monkeypatch):
    import trlab.gfq as gfq
    from trlab.pencils import PROFILE_CAP

    def no_extension(self, k):
        raise AssertionError(f"extension of degree {k} built past the cap")

    monkeypatch.setattr(gfq.FieldCtx, "extension", no_extension)
    pen = kronecker_block(F2, "Ln", 2)
    assert 2 ** 20 + 1 > PROFILE_CAP
    for ext_e in (20, 10 ** 9):  # the second would take seconds to raise 2 to
        with pytest.raises(CapExceeded):
            check(pen, ext_e)


def test_kernel_image_check_ranks_the_line_once(monkeypatch):
    # A + tB for every t of GF(81), and B, in one batch; the base-field
    # hypothesis reads the embedded points of the same ranks
    import trlab.pencils as P
    calls = []
    batch_rank = P.batch_rank

    def counted(ctx, mats):
        calls.append(len(mats))
        return batch_rank(ctx, mats)

    monkeypatch.setattr(P, "batch_rank", counted)
    rep = kernel_image_check(all_elements_diagonal_pencil(3), ext_e=4)
    assert calls == [3 ** 4 + 1]
    assert rep.affine_hypothesis_base and not rep.affine_hypothesis_ext
    assert rep.rank_a == 2 and not rep.conclusion


def test_line_checks_on_pencils_without_rows():
    # B(ker A) lies in the zero image when there are no rows (a reshape of
    # the empty mapped vectors used to raise ValueError)
    pen = kronecker_block(F2, "Ln_transpose", 0)
    assert pen.shape == (0, 1)
    rep = kernel_image_check(pen, ext_e=2)
    assert rep.conclusion and rep.rank_a == 0
    assert max_rank_reduction([pen.a, pen.b]).success


def test_kernel_image_identity_pair():
    pen = Pencil(Matrix.identity(F2, 2), Matrix.identity(F2, 2))
    rep = kernel_image_check(pen, ext_e=4)
    # rank(A + tB) drops to 0 at t = 1 = -1, so the hypothesis holds, and
    # ker A = 0 makes the conclusion trivial
    assert rep.affine_hypothesis_base and rep.affine_hypothesis_ext
    assert rep.conclusion


@pytest.mark.parametrize("q", [2, 3, 5])
def test_kernel_image_counterexample(q):
    pen = all_elements_diagonal_pencil(q)
    prof = rank_profile(pen, 1)
    assert tuple(r for _, r in prof.points[:-1]) == tuple([q - 1] * q)
    rep = kernel_image_check(pen, ext_e=4)
    assert rep.affine_hypothesis_base
    assert not rep.conclusion          # B(ker A) escapes im A
    assert not rep.affine_hypothesis_ext  # extension scalars break the plateau


def test_kernel_image_screening_no_violation():
    # hypothesis over a big extension forces the conclusion; sample screen
    rng = np.random.default_rng(211)
    for trial in range(300):
        ctx = F2 if trial % 2 == 0 else F3
        shape = (3, 3) if trial % 4 < 2 else (3, 4)
        a = Matrix(ctx, rng.integers(0, ctx.q, size=shape, dtype=np.int64))
        b = Matrix(ctx, rng.integers(0, ctx.q, size=shape, dtype=np.int64))
        rep = kernel_image_check(Pencil(a, b), ext_e=4)
        assert not (rep.affine_hypothesis_ext and not rep.conclusion)


def test_radical_restriction_self():
    rng = np.random.default_rng(223)
    for _ in range(10):
        b = Matrix(F2, rng.integers(0, 2, size=(3, 3), dtype=np.int64))
        rep = radical_restriction_check(b, b, ext_e=4)
        assert rep.conclusion and rep.passed


def test_radical_restriction_vacuous():
    b = Matrix.zeros(F2, 2, 2)
    c = Matrix.identity(F2, 2)
    rep = radical_restriction_check(b, c, ext_e=4)
    assert not rep.hypothesis
    assert rep.passed
    assert not rep.conclusion  # restriction to full radicals is c itself


def test_radical_restriction_screen():
    rng = np.random.default_rng(227)
    for _ in range(200):
        b = Matrix(F2, rng.integers(0, 2, size=(3, 3), dtype=np.int64))
        c = Matrix(F2, rng.integers(0, 2, size=(3, 3), dtype=np.int64))
        assert radical_restriction_check(b, c, ext_e=4).passed


PAIR_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def _member_pairs(draw):
    """(a, b): m x n matrices over GF(2), GF(3), GF(4), GF(5) or GF(9), with m
    and n in 0..4; each is zero, a rank-one outer product or random, and b may
    also equal a."""
    ctx = field_new(*draw(st.sampled_from(PAIR_FIELDS)))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def vec(k):
        return np.array(draw(st.lists(st.integers(0, ctx.q - 1), min_size=k, max_size=k)),
                        dtype=np.int64)

    def member(kind):
        if kind == "zero":
            return np.zeros((m, n), dtype=np.int64)
        if kind == "rank-one":
            return ctx.mul_arr(vec(m)[:, None], vec(n)[None, :])
        return vec(m * n).reshape(m, n)

    a = member(draw(st.sampled_from(["zero", "rank-one", "random"])))
    kind_b = draw(st.sampled_from(["zero", "rank-one", "random", "equal"]))
    b = a if kind_b == "equal" else member(kind_b)
    return Matrix(ctx, a), Matrix(ctx, b)


@settings(max_examples=150, deadline=None)
@given(pair=_member_pairs())
def test_containment_matches_the_radical_oracle(pair):
    # B(ker A) <= im A exactly when B vanishes on left kernel x kernel of A
    a, b = pair
    want = radical_restriction_vanishes(a, b)
    ki = kernel_image_check(Pencil(a, b), ext_e=2)
    rr = radical_restriction_check(a, b, ext_e=2)
    assert ki.conclusion == rr.conclusion == want
    assert rr.hypothesis == ki.affine_hypothesis_ext
    assert rr.passed == ((not rr.hypothesis) or want)
    assert rr.rank_b == ki.rank_a == rank(a)

    # every candidate max_rank_reduction tries: ker M, and im M exactly when
    # the span maps ker M into im M, byte for byte the column space of M
    calls, real = [], pencils_mod._kernel_image

    def recording(field, m, mats):
        out = real(field, m, mats)
        calls.append((field, m, mats, out))
        return out

    with mock.patch.object(pencils_mod, "_kernel_image", recording):
        rep = max_rank_reduction([a, b], ext_e=2, samples=8, seed=0)
    for field, m, mats, (w, v) in calls:
        witness = Matrix(field, m)
        assert w == kernel_basis(witness)
        im = Subspace.from_rows(field, witness.data.T)
        absorbed = all(im.contains_vectors(field_dot(field, l, w.basis.T).T)
                       for l in mats)
        assert (v is not None) == absorbed
        assert v is None or v == im
    if rep.success and calls:
        assert (rep.kernel, rep.image) == calls[-1][3]


def test_max_rank_reduction_single_matrix():
    rng = np.random.default_rng(229)
    for _ in range(8):
        m = Matrix(F3, rng.integers(0, 3, size=(3, 4), dtype=np.int64))
        rep = max_rank_reduction([m], ext_e=2, samples=5, seed=0)
        assert rep.success and not rep.over_extension
        assert rep.max_rank == rank(m)
        assert rep.kernel.dim == 4 - rank(m)
        assert rep.image.dim == rank(m)


def test_max_rank_reduction_span_examples():
    a = Matrix(F2, [[0, 0], [0, 1]])
    rep = max_rank_reduction([a, Matrix.identity(F2, 2)], ext_e=4, samples=10, seed=0)
    assert rep.success and rep.max_rank == 2
    assert rep.kernel.dim == 0 and rep.image.dim == 2

    e11 = Matrix(F2, [[1, 0], [0, 0]])
    e22 = Matrix(F2, [[0, 0], [0, 1]])
    rep = max_rank_reduction([e11, e22], ext_e=4, samples=10, seed=0)
    assert rep.success and rep.max_rank == 2
    # the certificate bound 2 * max_rank = 4 is valid but not tight here
    assert subspace_rank_exact([e11, e22]) == 2 <= 2 * rep.max_rank


def test_max_rank_reduction_certifies_subspace_rank():
    rng = np.random.default_rng(233)
    done = 0
    for _ in range(40):
        mats = [Matrix(F2, rng.integers(0, 2, size=(3, 3), dtype=np.int64))
                for _ in range(2)]
        rep = max_rank_reduction(mats, ext_e=8, samples=25, seed=3)
        if not rep.success or rep.over_extension:
            continue
        # base-field witness: the exact subspace rank obeys the certificate
        assert subspace_rank_exact(mats) <= 2 * rep.max_rank
        # and the witness pair really absorbs the span
        for m in mats:
            if rep.kernel.dim:
                mapped = [field_dot(F2, m.data, v) for v in rep.kernel.basis]
                assert rep.image.contains_vectors(np.array(mapped))
        done += 1
    assert done >= 30


def test_max_rank_reduction_zero_span():
    rep = max_rank_reduction([Matrix.zeros(F2, 2, 3)], ext_e=2, samples=4, seed=0)
    assert rep.success and rep.max_rank == 0
    assert rep.kernel.dim == 3 and rep.image.dim == 0


def test_pencil_json_roundtrip():
    pen = kronecker_block(F3, "Ln", 2)
    obj = json.loads(json.dumps(pencil_to_obj(pen)))
    back = pencil_from_obj(obj)
    assert back.a == pen.a and back.b == pen.b
    with pytest.raises(InputError):
        pencil_from_obj(dict(obj, A=obj["A"][:-1]))
    with pytest.raises(InputError):
        pencil_from_obj(dict(obj, B=[9] * len(obj["B"])))


def test_pencil_validation():
    with pytest.raises(InputError):
        Pencil(Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 3))
    with pytest.raises(InputError):
        Pencil(Matrix.identity(F2, 2), Matrix.identity(F3, 2))
