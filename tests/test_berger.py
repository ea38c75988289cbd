import pytest

from ffec.algebra import FFECError, Poly, field_create
from ffec.berger import (
    BergerData,
    berger_catalog,
    c1,
    c2,
    delta,
    first_example_data,
    format_berger_data,
    genus,
    l4_data,
    parse_berger_data,
    second_example_data,
)
from ffec.local import bad_reduction, nprime_deg


def test_delta_values():
    assert delta(1, 1) == 0
    assert delta(1, 2) == 0
    assert delta(2, 2) == 1
    assert delta(2, 3) == 1
    assert delta(3, 3) == 3
    with pytest.raises(ValueError):
        delta(0, 1)
    with pytest.raises(ValueError):
        delta(2, -1)


def test_delta_symmetric():
    for a in range(1, 7):
        for b in range(1, 7):
            assert delta(a, b) == delta(b, a)


def test_data_validation():
    with pytest.raises(ValueError, match="degree zero"):
        BergerData(f_zeros=(("0", 1),), f_poles=(("inf", 2),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))
    with pytest.raises(ValueError, match="repeated"):
        BergerData(f_zeros=(("0", 1), ("0", 1)), f_poles=(("inf", 2),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))
    with pytest.raises(ValueError, match="positive"):
        BergerData(f_zeros=(("0", 0),), f_poles=(("inf", 0),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))
    with pytest.raises(ValueError, match="at least one"):
        BergerData(f_zeros=(), f_poles=(("inf", 1),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))


def test_counts():
    d = first_example_data()
    assert (d.m, d.n) == (2, 2)
    assert (d.k, d.kprime, d.ell, d.ellprime) == (2, 1, 1, 2)
    d = second_example_data()
    assert (d.m, d.n) == (2, 2)
    assert (d.k, d.kprime, d.ell, d.ellprime) == (2, 2, 2, 1)


def test_hypotheses_characteristic():
    assert first_example_data(3).check_hypotheses() == []
    assert second_example_data(3).check_hypotheses() == []
    bad = first_example_data(2).check_hypotheses()
    assert len(bad) == 2
    assert any("2@inf" in msg for msg in bad)


def test_hypotheses_gcd():
    d = BergerData(f_zeros=(("0", 2),), f_poles=(("inf", 2),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))
    bad = d.check_hypotheses()
    assert len(bad) == 1 and "gcd" in bad[0]
    with pytest.raises(FFECError):
        genus(d)


def test_genus_examples():
    assert genus(first_example_data()) == 1
    assert genus(second_example_data()) == 1
    assert genus(l4_data()) == 1
    for p in (3, 5, 7):
        assert genus(l4_data(p)) == 1


def test_genus_linear():
    d = BergerData(f_zeros=(("0", 1),), f_poles=(("inf", 1),),
                   g_zeros=(("0", 1),), g_poles=(("inf", 1),))
    assert genus(d) == 0


def test_genus_symmetric_in_f_g():
    d = first_example_data()
    flipped = BergerData(f_zeros=d.g_zeros, f_poles=d.g_poles,
                         g_zeros=d.f_zeros, g_poles=d.f_poles)
    assert genus(flipped) == genus(d)


def test_c2_examples():
    assert c2(first_example_data()) == 0
    assert c2(second_example_data()) == 0
    assert c2(l4_data()) == 2


def test_c2_all_affine():
    d = BergerData(f_zeros=(("0", 1), ("2", 1)), f_poles=(("1", 1), ("3", 1)),
                   g_zeros=(("0", 1), ("2", 1)), g_poles=(("1", 1), ("3", 1)))
    assert c2(d) == 2


def test_c1_first_example():
    for p in (2, 3, 5):
        E = berger_catalog("first-example", field_create(p))
        assert c1(E) == 0


def test_c1_second_example():
    # over F_3 the extra bad locus is an irreducible quadratic, over F_5 it
    # splits into two rational points; both carry I_1 fibers so c1 = 0
    for p in (3, 5):
        E = berger_catalog("second-example", field_create(p))
        assert c1(E) == 0


def test_c1_counts_extra_components():
    # split multiplicative I_2 away from 0 and infinity contributes deg * 1
    F = field_create(5)
    E = berger_catalog("second-example", F)
    finite = [ld for ld in bad_reduction(E)
              if ld.place.poly is not None and ld.place.poly != Poly.x(F)]
    assert sum(ld.place.degree * (ld.m_v - 1) for ld in finite) == c1(E)


L4_CASES = ((7, 3), (5, 3), (11, 4))


def _l4_delta(F, a):
    av = F.scalar(a)
    t = Poly.x(F)
    quad = Poly(F, (a * a, -(2 * a * a - 16 * a + 16), a * a))
    return (Poly.const(av * av) * Poly.const((av - F.one) ** 4)
            * t ** 4 * (t - Poly.one(F)) ** 2 * quad)


@pytest.mark.parametrize("p,a", L4_CASES)
def test_l4_discriminant(p, a):
    F = field_create(p)
    E = berger_catalog("berger-L4", F, a)
    disc = E.delta
    assert disc.den.degree == 0
    assert disc.num == _l4_delta(F, a)


@pytest.mark.parametrize("p,a", L4_CASES)
def test_l4_multiplicative_locus(p, a):
    F = field_create(p)
    E = berger_catalog("berger-L4", F, a)
    assert nprime_deg(E) == 3
    mult = [ld for ld in bad_reduction(E)
            if ld.type.is_multiplicative and ld.place.poly is not None
            and ld.place.poly != Poly.x(F)]
    assert sum(ld.place.degree for ld in mult) == 3


def test_catalog_dispatch():
    F = field_create(7)
    E = berger_catalog("berger-L4", F, 3)
    assert E.field.q == 7
    assert not berger_catalog("first-example", field_create(3)).delta.num.is_zero()
    with pytest.raises(ValueError, match="parameter"):
        berger_catalog("berger-L4", F)
    with pytest.raises(ValueError, match="no parameter"):
        berger_catalog("first-example", F, 3)
    with pytest.raises(ValueError, match="unknown"):
        berger_catalog("nonsense", F)
    with pytest.raises(ValueError):
        berger_catalog("berger-L4", F, 1)


def test_parse_format_roundtrip():
    for build in (first_example_data, second_example_data, l4_data):
        d = build()
        assert parse_berger_data(format_berger_data(d)) == d


def test_parse_comments_and_errors():
    d = parse_berger_data("# a comment\nf: 1@0 1@1 / 2@inf\n\ng: 2@0 / 1@1 1@inf\n")
    assert d == first_example_data()
    with pytest.raises(FFECError, match="line 1"):
        parse_berger_data("f 1@0 / 1@inf\ng: 1@0 / 1@inf")
    with pytest.raises(FFECError, match="missing '/'"):
        parse_berger_data("f: 1@0 1@inf\ng: 1@0 / 1@inf")
    with pytest.raises(FFECError, match="mult@label"):
        parse_berger_data("f: 1@0 x / 1@inf\ng: 1@0 / 1@inf")
    with pytest.raises(FFECError, match="multiplicity"):
        parse_berger_data("f: z@0 / 1@inf\ng: 1@0 / 1@inf")
    with pytest.raises(FFECError, match="exactly one"):
        parse_berger_data("f: 1@0 / 1@inf")
