"""Laurent arithmetic, substitutions, rendering, and parsing."""

import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbongraphs.errors import (
    FractionalExponent,
    NegativeExponentNonUnit,
    ParseError,
    RibbonGraphError,
    RingMismatch,
)
from ribbongraphs.polynomial import (
    RING_ABD,
    RING_T,
    RING_XY,
    RING_XYZ,
    Laurent,
    restrict_duality_surface,
)

from .helpers import monomial_map, parse_poly, permute_vars

X = Laurent.monomial(RING_XYZ, (2, 0, 0))
Y = Laurent.monomial(RING_XYZ, (0, 2, 0))
Z = Laurent.monomial(RING_XYZ, (0, 0, 1))


class ListKeys(Mapping):
    """A mapping whose keys come out as lists."""

    def __init__(self, terms):
        self.terms = terms

    def __getitem__(self, key):
        return self.terms[tuple(key)]

    def __iter__(self):
        return (list(key) for key in self.terms)

    def __len__(self):
        return len(self.terms)


def keys_for(ring):
    bounds = st.integers(min_value=-8, max_value=8)
    return st.tuples(*[bounds for _ in ring.names])


def laurents(ring):
    return st.dictionaries(keys_for(ring), st.integers(-9, 9), max_size=6).map(
        lambda terms: Laurent(ring, terms)
    )


class TestArithmetic:
    def test_zero_terms_dropped(self):
        p = Laurent(RING_XYZ, {(2, 0, 0): 1, (0, 2, 0): 0})
        assert p == X
        assert len(p.terms) == 1

    def test_constructor_contract(self):
        # Zero terms go before the width check, so a zero coefficient on a
        # key of the wrong width is ignored, not raised.
        assert Laurent(RING_XY, {(1, 2, 3): 0, (2, 0): 1}).terms == {(2, 0): 1}
        assert Laurent(RING_XY, {(1,): 0}) == Laurent.zero(RING_XY)
        # The first key of the wrong width, in the caller's order, is named.
        for terms, named in [
            ({(0, 0): 1, (1,): 2, (1, 2, 3): 3}, "(1,)"),
            ({(1, 2, 3): 3, (0, 0): 1, (1,): 2}, "(1, 2, 3)"),
            ({(1,): 0, (0, 0): 1, (1, 2, 3): 3}, "(1, 2, 3)"),
        ]:
            with pytest.raises(RingMismatch, match=rf"^key {re.escape(named)} does not fit"):
                Laurent(RING_XY, terms)
        # Keys are stored as tuples, whatever sequence the mapping yields.
        p = Laurent(RING_XY, ListKeys({(2, 0): 1, (0, 2): -1}))
        assert p.terms == {(2, 0): 1, (0, 2): -1}
        assert all(type(key) is tuple for key in p.terms)
        with pytest.raises(RingMismatch, match=r"^key \[1\] does not fit"):
            Laurent(RING_XY, ListKeys({(0, 0): 1, (1,): 2}))
        for empty in (None, {}):
            assert Laurent(RING_XYZ, empty) == Laurent.zero(RING_XYZ)
            assert Laurent(RING_XYZ, empty).terms == {}

    def test_constants(self):
        assert Laurent.const(RING_XYZ, 0) == Laurent.zero(RING_XYZ)
        assert not Laurent.zero(RING_XYZ)
        assert Laurent.const(RING_XYZ, 3) + Laurent.const(RING_XYZ, -3) == Laurent.zero(
            RING_XYZ
        )

    def test_product_example(self):
        p = (X + Y) * (X - Y)
        assert p == X * X - Y * Y

    def test_ring_errors_are_package_errors(self):
        cases = [
            (
                lambda: Laurent(RING_XY, {(1, 2, 3): 1}),
                "key (1, 2, 3) does not fit ring ('x', 'y')",
            ),
            (
                lambda: X + Laurent.const(RING_XY, 1),
                "ring mismatch: ('x', 'y', 'z') vs ('x', 'y')",
            ),
            (
                lambda: restrict_duality_surface(Laurent.const(RING_T, 1)),
                "restriction is defined on the (x, y, z) ring",
            ),
            (  # zip would stop early and read z as 1
                lambda: Laurent(RING_XYZ, {(2, 0, 1): 1}).evaluate([2, 2]),
                "2 values for the 3 variables of ring ('x', 'y', 'z')",
            ),
            (
                lambda: Laurent(RING_XYZ, {(2, 0, 1): 1}).evaluate([2, 2, 2, 2]),
                "4 values for the 3 variables of ring ('x', 'y', 'z')",
            ),
            (
                lambda: X.substitute("w", Y),
                "no variable 'w' in ring ('x', 'y', 'z')",
            ),
            (  # variables are named, not numbered
                lambda: X.substitute(7, Y),
                "no variable 7 in ring ('x', 'y', 'z')",
            ),
            (  # a negative index would build keys of the wrong width
                lambda: X.substitute(-1, Y),
                "no variable -1 in ring ('x', 'y', 'z')",
            ),
        ]
        for bad, message in cases:
            with pytest.raises(RingMismatch) as err:
                bad()
            assert str(err.value) == message
            assert isinstance(err.value, RibbonGraphError)
            assert isinstance(err.value, ValueError)

    def test_integer_scalars(self):
        assert 2 * X == X + X
        assert X - 2 * X == -X
        assert (0 * X).terms == (X * 0).terms == {}

    def test_integers_on_either_side(self):
        one = Laurent.const(RING_XYZ, 1)
        assert X + 1 == 1 + X == X + one
        assert X - 1 == X + Laurent.const(RING_XYZ, -1)
        assert 1 - X == one - X == -(X - 1)
        assert 0 + X == X + 0 == X

    def test_zero_sums_leave_no_term(self):
        # Only the constructor drops zero coefficients; sums and products
        # reach it with theirs.
        assert (X + 1 - 1).terms == X.terms
        assert (X - X).terms == {}
        assert ((X + Y) * (X - Y)).terms == {(4, 0, 0): 1, (0, 4, 0): -1}

    def test_repr_shows_the_rendering(self):
        assert repr(X + 2 * Y) == "Laurent('x + 2*y')"
        assert repr(Laurent(RING_XYZ, {(1, -2, 3): -2})) == "Laurent('-2*x^(1/2)*y^(-1)*z^3')"
        assert repr(Laurent.zero(RING_T)) == "Laurent('0')"

    def test_power_negative_unit(self):
        u = Laurent.monomial(RING_XYZ, (2, -2, 1), -1)
        assert u**-2 * u**2 == Laurent.const(RING_XYZ, 1)

    def test_power_negative_nonunit(self):
        with pytest.raises(NegativeExponentNonUnit):
            (X + Y) ** -1

    def test_inverse_needs_a_unit_coefficient(self):
        with pytest.raises(NegativeExponentNonUnit) as err:
            (2 * X) ** -1
        assert str(err.value) == "coefficient 2 is not invertible"
        assert (-X).inverse_unit() == Laurent.monomial(RING_XYZ, (-2, 0, 0), -1)

    @given(laurents(RING_XYZ), laurents(RING_XYZ), laurents(RING_XYZ))
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p + q - q == p

    @given(laurents(RING_ABD))
    @settings(max_examples=40, deadline=None)
    def test_one_is_neutral(self, p):
        assert p * Laurent.const(RING_ABD, 1) == p
        assert p + Laurent.zero(RING_ABD) == p


class TestSubstitute:
    def test_z_to_one(self):
        p = X * Y * Z * Z + 2 * Y * Z + Y
        q = p.substitute("z", Laurent.const(RING_XYZ, 1))
        assert q == X * Y + 3 * Y

    def test_shift(self):
        p = X * X
        shifted = p.substitute("x", X - Laurent.const(RING_XYZ, 1))
        assert shifted == X * X - 2 * X + Laurent.const(RING_XYZ, 1)

    def test_half_exponent_refused(self):
        half = Laurent.monomial(RING_XYZ, (1, 0, 0))
        with pytest.raises(FractionalExponent):
            half.substitute("x", X + Y)

    def test_negative_exponent_needs_unit(self):
        p = Laurent.monomial(RING_XYZ, (-2, 0, 0))
        assert p.substitute("x", Y) == Laurent.monomial(RING_XYZ, (0, -2, 0))
        with pytest.raises(NegativeExponentNonUnit):
            p.substitute("x", X + Y)

    def test_unaffected_variable_kept(self):
        p = Y * Z
        assert p.substitute("x", Laurent.zero(RING_XYZ)) == p

    def test_zero_image_kills_positive_powers(self):
        p = X * Y + Y
        assert p.substitute("x", Laurent.zero(RING_XYZ)) == Y


class TestMonomialMap:
    def test_restriction_images(self):
        # On the surface x*y*z^2 = 1 the monomial x*y*z^2 collapses to 1.
        assert restrict_duality_surface(X * Y * Z * Z) == Laurent.const(RING_XY, 1)
        assert restrict_duality_surface(X * Z) == Laurent.monomial(RING_XY, (1, -1))

    def test_sign_parity(self):
        p = Laurent.monomial(RING_XYZ, (4, 0, 0))  # x^2
        image = monomial_map(p, RING_T, [(-1, (Fraction(1),)), (1, ()), (1, ())])
        assert image == Laurent.monomial(RING_T, (8,))
        odd = monomial_map(
            Laurent.monomial(RING_XYZ, (2, 0, 0)),
            RING_T,
            [(-1, (Fraction(1),)), (1, ()), (1, ())],
        )
        assert odd == Laurent.monomial(RING_T, (4,), -1)

    def test_off_lattice_rejected(self):
        p = Laurent.monomial(RING_XYZ, (1, 0, 0))  # x^(1/2)
        with pytest.raises(FractionalExponent):
            monomial_map(p, RING_ABD, [(1, (Fraction(1), 0, 0)), (1, ()), (1, ())])

    def test_half_exponents_may_cancel(self):
        p = Laurent.monomial(RING_XYZ, (1, 1, 0))  # x^(1/2) y^(1/2)
        image = monomial_map(
            p, RING_T, [(1, (Fraction(1),)), (1, (Fraction(1),)), (1, ())]
        )
        assert image == Laurent.monomial(RING_T, (4,))


class TestEvaluateAndProject:
    def test_exact_fractions(self):
        p = X + Y
        assert p.evaluate((Fraction(1, 2), Fraction(1, 3), 0)) == Fraction(5, 6)

    def test_zero_to_the_zero(self):
        assert Laurent.const(RING_XY, 7).evaluate((0, 0)) == 7

    def test_negative_power_of_zero(self):
        p = Laurent.monomial(RING_XY, (-2, 0))
        with pytest.raises(NegativeExponentNonUnit):
            p.evaluate((0, 1))

    def test_negative_powers_of_units(self):
        # 1 and -1 take any power: x^-2 y^-3 is 1 at x = 1 and -1 at y = -1.
        p = Laurent.monomial(RING_XY, (-4, -6), 3) + Laurent.monomial(RING_XY, (-2, 0), 5)
        assert p.evaluate((1, -1)) == -3 + 5
        assert p.evaluate((-1, 1)) == 3 - 5
        assert p.evaluate((-1, -1)) == -3 - 5

    def test_fractional_exponent_refused(self):
        p = Laurent.monomial(RING_XYZ, (1, 0, 0))
        with pytest.raises(FractionalExponent) as err:
            p.evaluate((4, 1, 1))
        assert str(err.value) == "cannot evaluate fractional exponent 1/2"

    def test_permute_vars_swaps(self):
        p = X * X + Y
        assert permute_vars(p, (1, 0, 2)) == Y * Y + X


class TestRender:
    def test_golden_xyz(self):
        p = X * Y * Z * Z + Y * Y * Z + 2 * Y * Z + X + Y + 2 * Laurent.monomial(
            RING_XYZ, (0, 0, 0)
        )
        assert p.render() == "x*y*z^2 + y^2*z + 2*y*z + x + y + 2"

    def test_one_var_ascending(self):
        p = (
            Laurent.monomial(RING_T, (-6,))
            + Laurent.monomial(RING_T, (-4,))
            - Laurent.monomial(RING_T, (-2,))
        )
        assert p.render() == "t^(-3/2) + t^(-1) - t^(-1/2)"

    def test_quarter_exponents(self):
        p = Laurent.monomial(RING_T, (1,)) - Laurent.monomial(RING_T, (-3,))
        assert p.render() == "-t^(-3/4) + t^(1/4)"

    def test_half_exponents(self):
        p = Laurent.monomial(RING_XY, (-1, 1))
        assert p.render() == "x^(-1/2)*y^(1/2)"

    def test_zero_renders(self):
        assert Laurent.zero(RING_XYZ).render() == "0"

    def test_coefficient_one_elided(self):
        assert (X * Y).render() == "x*y"
        assert (-X).render() == "-x"
        assert (X - X + Laurent.const(RING_XYZ, -1)).render() == "-1"

    def test_abd_order(self):
        A = Laurent.monomial(RING_ABD, (1, 0, 0))
        B = Laurent.monomial(RING_ABD, (0, 1, 0))
        d = Laurent.monomial(RING_ABD, (0, 0, 1))
        p = A * A * d + 2 * A * B + B * B
        assert p.render() == "A^2*d + 2*A*B + B^2"


class TestParse:
    @pytest.mark.parametrize("ring", [RING_XYZ, RING_XY, RING_ABD, RING_T])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, ring, data):
        p = data.draw(laurents(ring))
        assert parse_poly(p.render(), ring) == p

    def test_golden(self):
        p = parse_poly("x*y*z^2 + y^2*z + 2*y*z + x + y + 2", RING_XYZ)
        assert p.terms[(2, 2, 2)] == 1
        assert p.terms[(0, 0, 0)] == 2

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x + ^2", RING_XYZ)
        assert exc.value.line == 1
        assert exc.value.col == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("q + 1", RING_XYZ)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("   ", RING_XYZ)
