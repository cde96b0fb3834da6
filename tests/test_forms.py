"""Tests for the differential-forms toolkit."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tegi import forms
from tegi.errors import (
    DomainError,
    FormDegreeError,
    ShapeMismatchError,
    TegiTypeError,
)
from tegi.symexpr import (
    ONE,
    ZERO,
    Sym,
    add,
    cos,
    div,
    integer,
    int_pow,
    mul,
    neg,
    sin,
    sub,
    symbol,
)
from tegi.tensor import TensorValue, attach_indices, down, tensor, up
from tegi.forms import det, df_normalize, df_order, hodge_star, levi_civita

from oracles import (
    det_ref,
    df_normalize_ref,
    exterior_d,
    hodge_loop_ref,
    hodge_ref,
    levi_civita_ref,
    perm_sign_ref,
    to_nested,
    wedge,
)

I, J, K = Sym("i"), Sym("j"), Sym("k")
R, TH, PH = symbol("r"), symbol("θ"), symbol("φ")
A_, B_, C_, D_ = symbol("a"), symbol("b"), symbol("c"), symbol("d")

DELTA = tensor([[1, 0], [0, 1]])
X = tensor([TH, PH])


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
            assert flat[pos] == integer(perm_sign_ref(coords))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference(self, n):
        # [DERIVED: every n**n index tuple signed, repeats 0]
        assert levi_civita(n) == levi_civita_ref(n)

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
        assert calls == [(A_, B_, C_, D_)]
        assert got == mul(A_, B_, C_, D_) == det_ref(m)

    def test_diagonal_8x8_never_enumerates_all_permutations(self, monkeypatch):
        # [DERIVED: Leibniz] one of the 8! = 40,320 permutations avoids a zero
        # entry, and the walk builds only that one
        def no_enumeration(n):
            raise AssertionError("det enumerated every permutation")

        monkeypatch.setattr(forms, "_signed_permutations", no_enumeration)
        entries = [symbol(f"a{i}") for i in range(8)]
        assert det(diagonal(entries)) == mul(*entries)

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
            assert lhs.shape == rhs.shape
            assert lhs.components == tuple(neg(c) for c in rhs.components)


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

    @pytest.mark.parametrize(
        "value", ["s", (R,), True, len], ids=["string", "collection", "boolean", "function"]
    )
    def test_a_non_form_value_is_refused(self, value):
        with pytest.raises(TegiTypeError, match="df-normalize expects a scalar or tensor value"):
            df_normalize(value)

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
                assert block[0][1] == neg(block[1][0])

    def test_three_form_in_three_dimensions_sums_once(self, monkeypatch):
        # [DERIVED: C(3, 3) = 1] only (0, 1, 2) is summed, from its 3! = 6
        # signed components; the other 26 are signed copies of it or 0
        rng = random.Random(43)
        comps = [mul(integer(rng.randint(1, 9)), rng.choice([A_, B_, C_])) for _ in range(27)]
        t = TensorValue((3, 3, 3), tuple(comps), ())
        sums = []
        real = forms.add
        monkeypatch.setattr(forms, "add", lambda *ts: sums.append(ts) or real(*ts))
        got = df_normalize(t)
        assert len(sums) == 1 and len(sums[0]) == 6
        assert got == df_normalize_ref(t)

    @pytest.mark.parametrize(
        "t",
        [
            TensorValue((2,) + (1,) * 12, (A_, B_), (up(I),)),
            TensorValue((2, 2, 2), tuple(integer(v) for v in range(8)), ()),
        ],
        ids=["12-axes-of-1", "3-axes-of-2"],
    )
    def test_fewer_dimensions_than_form_axes_is_zero_at_once(self, monkeypatch, t):
        # [DERIVED] no increasing form-index tuple exists, so every component
        # alternates to zero and no table of the k! permutations is built
        calls = []
        monkeypatch.setattr(forms, "_signed_permutations", lambda k: calls.append(k) or [])
        got = df_normalize(t)
        assert calls == []
        assert got == TensorValue(t.shape, (ZERO,) * len(t.components), t.indices)
        if len(t.shape) <= 5:
            assert got == df_normalize_ref(t)

    def test_unequal_form_axes(self):
        t = TensorValue((2, 3), tuple(integer(v) for v in range(6)), ())
        with pytest.raises(ShapeMismatchError):
            df_normalize(t)


class TestHodge:
    def test_volume_form(self):
        # [PAPER] *1 in Euclidean n=2 is the volume form
        got = hodge_star(DELTA, DELTA)(integer(1))
        assert to_nested(got) == [[0, 1], [-1, 0]]

    def test_one_form(self):
        # [PAPER] *(a, b) = (-b, a)
        got = hodge_star(DELTA, DELTA)(tensor([A_, B_]))
        assert got.components == (neg(B_), A_)

    def test_hodge_twice_is_minus_identity(self):
        # [PAPER] ** = -1 on 1-forms in Euclidean n=2
        a = tensor([A_, B_])
        got = hodge_star(DELTA, DELTA)(hodge_star(DELTA, DELTA)(a))
        assert got.components == (neg(A_), neg(B_))

    def test_two_form_no_factorial(self):
        # [DERIVED: formula has no 1/k! so *([|[|0 1|] [|-1 0|]|]) = 2]
        got = hodge_star(DELTA, DELTA)(tensor([[0, 1], [-1, 0]]))
        assert got == integer(2)

    def test_degree_error(self):
        t = TensorValue((2, 2, 2), tuple(integer(v) for v in range(8)), ())
        with pytest.raises(FormDegreeError):
            hodge_star(DELTA, DELTA)(t)

    def test_diagonal_metric_never_multiplies_by_zero(self, monkeypatch):
        # *A of a 1-form on diag(a^2, b^2, c^2): one product for det g, then
        # for each of the 3 increasing output pairs (i, j) one ε term (the
        # left-out index has one ordering and its g^{..} row one nonzero
        # entry) and one sqrt|det g| scaling: 1 + 3 * 2.  The swapped pairs
        # are negations and the 3 repeated-index slots stay 0.
        sq = [int_pow(v, 2) for v in (A_, B_, C_)]
        g, ginv = diagonal(sq), diagonal([div(integer(1), s) for s in sq])
        form = tensor([R, TH, PH])
        calls = record_mul(monkeypatch)
        got = hodge_star(g, ginv)(form)
        assert not any(ZERO in factors for factors in calls)
        assert len(calls) == 1 + 3 * 2
        assert got == hodge_ref(form, g, ginv)

    def test_metric_scale(self):
        # [DERIVED by hand] *1 with g = diag(4, 4) is sqrt(16) ε = 4 ε
        g = tensor([[4, 0], [0, 4]])
        quarter = div(integer(1), integer(4))
        ginv = tensor([[quarter, integer(0)], [integer(0), quarter]])
        got = hodge_star(g, ginv)(integer(1))
        assert to_nested(got) == [[0, 4], [-4, 0]]

    def test_three_form_on_diagonal_metric_multiplies_one_minor(self, monkeypatch):
        # *A of a 3-form on diag(a^2, b^2, c^2): one product for det g, one
        # for the single 3x3 minor of g^{..}, one minor times the alternating
        # sum of the 6 components on (0, 1, 2), and one sqrt|det g| scaling.
        # Summing over orderings and entries took 6 products of 5 factors.
        sq = [int_pow(v, 2) for v in (A_, B_, C_)]
        g, ginv = diagonal(sq), diagonal([div(integer(1), s) for s in sq])
        rng = random.Random(47)
        form = TensorValue(
            (3, 3, 3), tuple(mul(integer(rng.randint(1, 9)), rng.choice([R, TH, PH])) for _ in range(27)), ()
        )
        calls = record_mul(monkeypatch)
        got = hodge_star(g, ginv)(form)
        assert len(calls) == 4
        assert calls[:2] == [tuple(sq), tuple(ginv.components[::4])]
        assert got == hodge_ref(form, g, ginv) == hodge_loop_ref(form, g, ginv)

    def test_vanishing_minor_is_never_multiplied(self, monkeypatch):
        # [DERIVED: det [[1, 2], [2, 4]] = 0] the one 2x2 minor of g^{..} is 0,
        # so *A of a 2-form is 0 after det g and the minor's two products
        g, ginv = DELTA, tensor([[1, 2], [2, 4]])
        form = tensor([[A_, B_], [C_, D_]])
        calls = record_mul(monkeypatch)
        got = hodge_star(g, ginv)(form)
        assert len(calls) == 1 + 2
        assert got == ZERO == hodge_ref(form, g, ginv)

    def test_every_degree_through_one_star(self):
        # [DERIVED: dense reference] one star of diag(a^2, b^2, c^2) applied
        # to a form of each degree 0..3, a marked one included
        sq = [int_pow(v, 2) for v in (A_, B_, C_)]
        g, ginv = diagonal(sq), diagonal([div(integer(1), s) for s in sq])
        rng = random.Random(29)
        forms_ = [R] + [
            TensorValue((3,) * k, tuple(rng.choice(ENTRIES) for _ in range(3**k)), ())
            for k in (1, 2, 3)
        ]
        forms_.append(TensorValue((2, 3), tuple(rng.choice(ENTRIES) for _ in range(6)), (up(I),)))
        star = hodge_star(g, ginv)
        for form in forms_:
            assert star(form) == hodge_ref(form, g, ginv)

    def test_a_star_builds_each_degree_once(self, monkeypatch):
        # det g once per star, and one table per degree at its first form
        g, ginv = tensor([[A_, B_], [B_, C_]]), tensor([[C_, D_], [D_, A_]])
        built, dets = [], []
        real_table, real_det = forms._star_table, forms.det

        def table(n, k, *rest):
            built.append(k)
            return real_table(n, k, *rest)

        def counted_det(m):
            dets.append(m)
            return real_det(m)

        monkeypatch.setattr(forms, "_star_table", table)
        monkeypatch.setattr(forms, "det", counted_det)
        star = hodge_star(g, ginv)
        for form in (tensor([A_, B_]), R, tensor([C_, D_]), tensor([[A_, B_], [C_, D_]]), D_):
            star(form)
        assert (built, dets) == ([1, 0, 2], [g])

    def test_the_metric_is_checked_before_the_form(self):
        with pytest.raises(ShapeMismatchError, match="hodge star needs square metric matrices"):
            hodge_star(tensor([[1, 0, 0], [0, 1, 0]]), DELTA)
        star = hodge_star(DELTA, DELTA)
        with pytest.raises(TegiTypeError, match="hodge star of a non-form value"):
            star((R,))
        with pytest.raises(FormDegreeError):
            star(TensorValue((2, 2, 2), (R,) * 8, ()))
        assert star(integer(1)) == hodge_star(DELTA, DELTA)(integer(1))  # still usable


# the minor-sum Hodge star against the loop it replaced and the dense reference

ENTRIES = [integer(0), integer(0), ONE, integer(-1), integer(2), A_, B_, mul(A_, B_), sin(TH), add(A_, ONE)]


def draw_matrix(draw, n):
    return tensor([[draw(st.sampled_from(ENTRIES)) for _ in range(n)] for _ in range(n)])


def draw_form(draw, n, k):
    """A k-form in dimension n that need not be antisymmetric, sometimes
    with one marked axis."""
    marked = draw(st.sampled_from([(), (2,)]))
    shape = marked + (n,) * k
    comps = tuple(draw(st.sampled_from(ENTRIES)) for _ in range(math.prod(shape)))
    return TensorValue(shape, comps, (up(I),) if marked else ()) if shape else comps[0]


@st.composite
def hodge_cases(draw):
    """Dense, non-symmetric g and g^{..} (not each other's inverse) and a form."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=n))
    g, ginv = draw_matrix(draw, n), draw_matrix(draw, n)
    return draw_form(draw, n, k), g, ginv


@settings(max_examples=100, deadline=None)
@given(hodge_cases())
def test_hodge_matches_the_replaced_loop_and_the_dense_reference(case):
    form, g, ginv = case
    got = hodge_star(g, ginv)(form)
    assert got == hodge_loop_ref(form, g, ginv)
    assert got == hodge_ref(form, g, ginv)


@settings(max_examples=100, deadline=None)
@given(hodge_cases())
def test_df_normalize_matches_the_reference(case):
    # the alternating sums df-normalize shares with hodge, on the same forms
    form = case[0]
    assert df_normalize(form) == df_normalize_ref(form)


@st.composite
def star_cases(draw):
    """One metric pair of dimension 1..4 and forms of every degree 0..n,
    shuffled, some repeated and some with a marked axis."""
    n = draw(st.integers(min_value=1, max_value=4))
    g, ginv = draw_matrix(draw, n), draw_matrix(draw, n)
    repeats = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=2))
    degrees = draw(st.permutations([*range(n + 1), *repeats]))
    return g, ginv, [draw_form(draw, n, k) for k in degrees]


@settings(max_examples=60, deadline=None)
@given(star_cases())
def test_one_star_applied_to_many_forms_matches_a_fresh_hodge_per_form(case):
    g, ginv, forms_ = case
    star = hodge_star(g, ginv)
    for form in forms_:
        assert star(form) == hodge_star(g, ginv)(form) == hodge_loop_ref(form, g, ginv)
