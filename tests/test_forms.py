"""Tests for the differential-forms toolkit."""

import itertools
import random

import pytest

from tegi import forms
from tegi.errors import (
    DomainError,
    FormDegreeError,
    ShapeMismatchError,
    TegiTypeError,
)
from tegi.symexpr import (
    ZERO,
    Sym,
    add,
    cos,
    integer,
    int_pow,
    mul,
    neg,
    sin,
    sub,
    symbol,
)
from tegi.tensor import TensorValue, attach_indices, down, tensor, up
from tegi.forms import det, df_normalize, df_order, hodge, levi_civita

from oracles import det_ref, exterior_d, hodge_ref, to_nested, wedge

I, J, K = Sym("i"), Sym("j"), Sym("k")
R, TH, PH = symbol("r"), symbol("θ"), symbol("φ")
A_, B_, C_, D_ = symbol("a"), symbol("b"), symbol("c"), symbol("d")

DELTA = tensor([[1, 0], [0, 1]])
X = tensor([TH, PH])


def perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
            elif p[i] == p[j]:
                return 0
    return sign


class TestDfOrder:
    def test_scalar(self):
        assert df_order(integer(3)) == 0  # [TRIVIAL]

    def test_unmarked_matrix(self):
        assert df_order(tensor([[1, 2], [3, 4]])) == 2  # [TRIVIAL]

    def test_marked_axes_excluded(self):
        t = TensorValue((2, 2, 2), tuple(integer(v) for v in range(8)), (up(I), down(J)))
        assert df_order(t) == 1


class TestLeviCivita:
    def test_n2(self):
        assert to_nested(levi_civita(2)) == [[0, 1], [-1, 0]]  # [TRIVIAL]

    def test_n3_spots(self):
        e = to_nested(levi_civita(3))
        assert e[0][1][2] == 1 and e[1][0][2] == -1 and e[0][0][1] == 0

    def test_matches_sign_oracle(self):
        # [DERIVED: inversion-count oracle]
        e = levi_civita(3)
        flat = list(e.components)
        for pos, coords in enumerate(itertools.product(range(3), repeat=3)):
            assert flat[pos] == integer(perm_sign(coords))

    def test_domain(self):
        with pytest.raises(DomainError):
            levi_civita(0)


def record_mul(monkeypatch):
    """Route forms.mul through a recorder; returns the list of factor tuples."""
    calls = []
    real = forms.mul

    def recording(*factors):
        calls.append(factors)
        return real(*factors)

    monkeypatch.setattr(forms, "mul", recording)
    return calls


def diagonal(entries):
    n = len(entries)
    return tensor([[entries[i] if i == j else integer(0) for j in range(n)] for i in range(n)])


class TestDet:
    def test_2x2_symbolic(self):
        # [TRIVIAL] ad - bc
        m = tensor([[A_, B_], [C_, D_]])
        assert det(m) == sub(mul(A_, D_), mul(B_, C_))

    def test_s2_metric(self):
        # [DERIVED: diagonal product] det diag(r^2, r^2 sin^2 θ) = r^4 sin^2 θ
        g = tensor([[int_pow(R, 2), integer(0)], [integer(0), mul(int_pow(R, 2), int_pow(sin(TH), 2))]])
        assert det(g) == mul(int_pow(R, 4), int_pow(sin(TH), 2))

    def test_3x3_against_cofactor_oracle(self):
        rng = random.Random(23)

        def cofactor(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for c in range(len(rows)):
                minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
                total += (-1) ** c * rows[0][c] * cofactor(minor)
            return total

        for _ in range(50):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            assert det(tensor(rows)) == integer(cofactor(rows))

    def test_diagonal_4x4_never_multiplies_by_zero(self, monkeypatch):
        # [DERIVED: Leibniz] only the identity permutation avoids a zero entry
        m = diagonal([A_, B_, C_, D_])
        calls = record_mul(monkeypatch)
        got = det(m)
        assert calls == [(integer(1), A_, B_, C_, D_)]
        assert got == mul(A_, B_, C_, D_) == det_ref(m)

    def test_non_square(self):
        with pytest.raises(ShapeMismatchError):
            det(tensor([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(ShapeMismatchError):
            det(tensor([1, 2]))


class TestWedge:
    def test_two_one_forms(self):
        # [PAPER] wedge([|1 2|], [|30 40|]) -> [|[|30 40|] [|60 80|]|]
        got = wedge(tensor([1, 2]), tensor([30, 40]))
        assert got.indices == ()
        assert to_nested(got) == [[30, 40], [60, 80]]

    def test_scalar_times_form(self):
        # [TRIVIAL] 0-form times k-form is componentwise
        got = wedge(integer(3), tensor([[0, 1], [-1, 0]]))
        assert to_nested(got) == [[0, 3], [-3, 0]]

    def test_matrix_valued_contraction(self):
        # [DERIVED: triple-loop oracle] wedge(ω~i_k, ω~k_j)
        rng = random.Random(31)
        data = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        om = tensor(data)
        a = attach_indices(om, [up(I), down(K)])
        b = attach_indices(om, [up(K), down(J)])
        got = wedge(a, b)
        assert got.shape == (2, 2, 2, 2)
        assert got.indices == (up(I), down(J))
        want = [
            [
                [
                    [
                        sum(data[i][m][x] * data[m][j][y] for m in range(2))
                        for y in range(2)
                    ]
                    for x in range(2)
                ]
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert to_nested(got) == want

    def test_alternating_antisymmetry(self):
        # Alt(u ∧ v) = -Alt(v ∧ u) for random 1-forms  [DERIVED]
        rng = random.Random(37)
        for _ in range(50):
            u = tensor([rng.randint(-9, 9) for _ in range(3)])
            v = tensor([rng.randint(-9, 9) for _ in range(3)])
            lhs = df_normalize(wedge(u, v))
            rhs = df_normalize(wedge(v, u))
            assert to_nested(lhs) == [[-x for x in row] for row in to_nested(rhs)]


class TestExteriorD:
    def test_zero_form(self):
        # [TRIVIAL] d f = [|df/dθ df/dφ|]
        f = mul(TH, PH)
        got = exterior_d(f, X)
        assert got.components == (PH, TH)

    def test_one_form_spec_example(self):
        # [DERIVED by hand] d([|0 (cos θ)|]) -> [|[|0 (* -1 (sin θ))|] [|0 0|]|]
        got = exterior_d(tensor([integer(0), cos(TH)]), X)
        assert got.components == (integer(0), neg(sin(TH)), integer(0), integer(0))

    def test_derivative_axis_is_first(self):
        # D[c, a] = dA[a]/dx^c  [DERIVED: loop oracle]
        a_comps = [mul(TH, TH), mul(TH, PH)]
        got = exterior_d(tensor(a_comps), X)
        from tegi.symexpr import differentiate

        want = [
            [differentiate(a_comps[a], xc) for a in range(2)]
            for xc in (TH, PH)
        ]
        assert [[got.components[c * 2 + a] for a in range(2)] for c in range(2)] == want

    def test_matrix_valued(self):
        # [DERIVED: loop oracle] D[i,j,c,a] = d ω[i,j,a] / dx^c
        from tegi.symexpr import differentiate

        w = [[[mul(TH, PH), int_pow(TH, 2)], [sin(PH), integer(1)]],
             [[PH, TH], [mul(TH, TH), cos(PH)]]]
        t = TensorValue(
            (2, 2, 2),
            tuple(w[i][j][a] for i in range(2) for j in range(2) for a in range(2)),
            (up(I), down(J)),
        )
        got = exterior_d(t, X)
        assert got.shape == (2, 2, 2, 2)
        assert got.indices == (up(I), down(J))
        xs = (TH, PH)
        for i in range(2):
            for j in range(2):
                for c in range(2):
                    for a in range(2):
                        comp = got.components[((i * 2 + j) * 2 + c) * 2 + a]
                        assert comp == differentiate(w[i][j][a], xs[c])

    def test_coords_must_be_symbols(self):
        with pytest.raises(TegiTypeError):
            exterior_d(tensor([1, 2]), tensor([1, 2]))

    def test_dd_zero(self):
        # d(d f) alternates to zero  [DERIVED: mixed partials commute]
        f = add(mul(TH, mul(PH, PH)), mul(sin(TH), cos(PH)))
        dd = df_normalize(exterior_d(exterior_d(f, X), X))
        assert all(c == integer(0) for c in dd.components)


class TestDfNormalize:
    def test_low_degree_unchanged(self):
        v = tensor([1, 2, 3])
        assert df_normalize(v) == v  # [TRIVIAL]
        assert df_normalize(integer(5)) == integer(5)

    def test_spec_example(self):
        # [DERIVED by hand] Alt([|[|30 40|] [|60 80|]|]) = [|[|0 -10|] [|10 0|]|]
        got = df_normalize(wedge(tensor([1, 2]), tensor([30, 40])))
        assert to_nested(got) == [[0, -10], [10, 0]]

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(50):
            t = tensor([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
            once = df_normalize(t)
            assert df_normalize(once) == once

    def test_marked_axes_untouched(self):
        # only the form axes are alternated
        comps = tuple(integer(v) for v in range(16))
        t = TensorValue((2, 2, 2, 2), comps, (up(I), down(J)))
        got = df_normalize(t)
        for i in range(2):
            for j in range(2):
                block = [
                    [to_nested(got)[i][j][k][l] for l in range(2)] for k in range(2)
                ]
                assert block[0][0] == 0 and block[1][1] == 0
                assert block[0][1] == -block[1][0]

    def test_unequal_form_axes(self):
        t = TensorValue((2, 3), tuple(integer(v) for v in range(6)), ())
        with pytest.raises(ShapeMismatchError):
            df_normalize(t)


class TestHodge:
    def test_volume_form(self):
        # [PAPER] *1 in Euclidean n=2 is the volume form
        got = hodge(integer(1), DELTA, DELTA)
        assert to_nested(got) == [[0, 1], [-1, 0]]

    def test_one_form(self):
        # [PAPER] *(a, b) = (-b, a)
        got = hodge(tensor([A_, B_]), DELTA, DELTA)
        assert got.components == (neg(B_), A_)

    def test_hodge_twice_is_minus_identity(self):
        # [PAPER] ** = -1 on 1-forms in Euclidean n=2
        a = tensor([A_, B_])
        got = hodge(hodge(a, DELTA, DELTA), DELTA, DELTA)
        assert got.components == (neg(A_), neg(B_))

    def test_two_form_no_factorial(self):
        # [DERIVED: formula has no 1/k! so *([|[|0 1|] [|-1 0|]|]) = 2]
        got = hodge(tensor([[0, 1], [-1, 0]]), DELTA, DELTA)
        assert got == integer(2)

    def test_degree_error(self):
        t = TensorValue((2, 2, 2), tuple(integer(v) for v in range(8)), ())
        with pytest.raises(FormDegreeError):
            hodge(t, DELTA, DELTA)

    def test_diagonal_metric_never_multiplies_by_zero(self, monkeypatch):
        # *A of a 1-form on diag(a^2, b^2, c^2): one product for det g, then
        # for each of the 6 output slots with distinct indices one ε term and
        # one sqrt|det g| scaling; the 3 repeated-index slots multiply nothing
        sq = [int_pow(v, 2) for v in (A_, B_, C_)]
        g, ginv = diagonal(sq), diagonal([integer(1) / s for s in sq])
        form = tensor([R, TH, PH])
        calls = record_mul(monkeypatch)
        got = hodge(form, g, ginv)
        assert not any(ZERO in factors for factors in calls)
        assert len(calls) == 1 + 6 * 2
        assert got == hodge_ref(form, g, ginv)

    def test_metric_scale(self):
        # [DERIVED by hand] *1 with g = diag(4, 4) is sqrt(16) ε = 4 ε
        g = tensor([[4, 0], [0, 4]])
        ginv = tensor([[integer(1) / 4, integer(0)], [integer(0), integer(1) / 4]])
        got = hodge(integer(1), g, ginv)
        assert to_nested(got) == [[0, 4], [-4, 0]]
