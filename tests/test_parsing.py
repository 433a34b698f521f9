import itertools

import pytest

from ramstruct.catalog import builtin_catalog, bundled_cayley_path
from ramstruct.errors import InvalidOrder, InvalidPrime, OutOfRange, ParseError, RamError
from ramstruct.groups import AbelianGroup, DirectProductGroup, HeisenbergGroup
from ramstruct.parsing import (
    build_group,
    parse_element,
    parse_tuple,
    render_element,
    render_tuple,
)
from ramstruct.structures import GenTuple


def test_group_spec_chain():
    G = build_group("C2xC4xC4xC4")
    assert isinstance(G, AbelianGroup) and G.orders == (2, 4, 4, 4)
    assert G.describe() == "C2xC4xC4xC4"
    assert build_group("abelian(2, 4, 4, 4)").describe() == G.describe()
    assert build_group(" c2 X c4 x C4xC4 ").describe() == G.describe()


def test_group_spec_heis_and_prod():
    assert build_group("heis(5)").p == 5
    assert build_group("HEIS( 3 )").p == 3
    G = build_group("prod(C3xC3, heis(3))")
    assert isinstance(G, DirectProductGroup) and G.order == 9 * 27
    assert isinstance(G.right, HeisenbergGroup)
    assert G.describe() == "prod(C3xC3,heis(3))"


def test_group_spec_cayley():
    path = bundled_cayley_path("q8")
    G = build_group(f"cayley:{path}")
    assert G.order == 8 and not G.is_abelian
    assert G.describe() == f"cayley:{path}"


def test_group_spec_errors():
    # (spec, error, position of the offending input)
    cases = [
        ("C1xC2", InvalidOrder, 1),
        ("C2xC0", InvalidOrder, 4),
        ("abelian(2, 1)", InvalidOrder, 10),
        ("heis(4)", InvalidPrime, 5),
        ("heis(2)", InvalidPrime, 5),
        ("HEIS(9)", InvalidPrime, 5),
        ("C2x", ParseError, 3),
        ("prod(C2)", ParseError, 7),
        ("C2 garbage", ParseError, 3),
        ("prod(C2,C3) x", ParseError, 12),
        ("cayley:", ParseError, 7),
        ("", ParseError, 0),
    ]
    for text, error, pos in cases:
        with pytest.raises(error) as info:
            build_group(text)
        assert info.value.pos == pos, text


def test_malformed_cayley_file_is_an_input_error(malformed_cayley):
    with pytest.raises(RamError):
        build_group(f"cayley:{malformed_cayley}")


def test_describe_round_trip():
    # describe() is the canonical spec: parsing it rebuilds the group, and
    # every spelling of a spec describes the same way
    q8 = f"cayley:{bundled_cayley_path('q8')}"
    specs = [entry.spec for entry in builtin_catalog(32)]
    specs += [f"prod({q8},C3)", f"prod( C3 , {q8} )", "abelian(2, 4,4)", "HEIS( 3 )"]
    specs += ["c2 X c4", "PROD(heis(3),prod(C2,C3))"]
    for spec in specs:
        G = build_group(spec)
        again = build_group(G.describe())
        assert again.describe() == G.describe(), spec
        assert type(again) is type(G) and again.order == G.order, spec
    assert build_group(f"prod( C3 , {q8} )").describe() == f"prod(C3,{q8})"
    assert build_group("abelian(2, 4,4)").describe() == "C2xC4xC4"
    assert build_group("HEIS( 3 )").describe() == "heis(3)"


def test_parse_element_abelian(c2c4cubed):
    G = c2c4cubed
    assert parse_element(G, "x2^-1") == G.index_of((0, 3, 0, 0))
    assert parse_element(G, "(0,3,0,0)") == G.index_of((0, 3, 0, 0))
    assert parse_element(G, "x1*x2^2") == G.index_of((1, 2, 0, 0))
    assert parse_element(G, "(x1*x2)^-1") == G.inv(G.mul(G.generator(0), G.generator(1)))
    assert parse_element(G, "1") == 0
    C = AbelianGroup([5, 5])
    assert C.vector(parse_element(C, "x1*x2^2")) == (1, 2)


def test_parse_element_heis(heis3):
    assert heis3.triple(parse_element(heis3, "(1,0,2)")) == (1, 0, 2)
    assert heis3.triple(parse_element(heis3, "(1, 0, -1)")) == (1, 0, 2)


def test_parse_element_product():
    P = build_group("prod(C3xC3,C2xC2xC2)")
    e = parse_element(P, "(x1*x2|x3)")
    a, b = P.pair(e)
    assert P.left.vector(a) == (1, 1)
    assert P.right.vector(b) == (0, 0, 1)


def test_parse_element_cayley(q8):
    assert parse_element(q8, "#3") == 3
    assert parse_element(q8, "-i") == 3
    assert parse_element(q8, "i") == 2
    with pytest.raises(OutOfRange):
        parse_element(q8, "#9")


def test_parse_element_errors(c2c4cubed):
    with pytest.raises(OutOfRange):
        parse_element(c2c4cubed, "x5")
    with pytest.raises(OutOfRange):
        parse_element(c2c4cubed, "(0,4,0,0)")
    with pytest.raises(ParseError):
        parse_element(c2c4cubed, "x2^")
    with pytest.raises(ParseError):
        parse_element(c2c4cubed, "(1,2)")


def test_parse_tuple(c2c4cubed):
    C = AbelianGroup([5, 5])
    T = parse_tuple(C, "[x1; x2; (x1*x2)^-1]")
    assert len(T) == 3
    assert T.product() == 0
    with pytest.raises(ParseError):
        parse_tuple(C, "[]")
    with pytest.raises(ParseError):
        parse_tuple(C, "[x1; x2] trailing")


def test_literal_error_positions():
    # (group spec, literal, error, position of the offending input): a spec
    # when the group is None, else a tuple literal in brackets or an element
    # literal; most are separated lists left short or doubled
    cases = [
        (None, "abelian(2,)", ParseError, 10),
        (None, "abelian(2 4)", ParseError, 10),
        (None, "C2 x C3 x", ParseError, 9),
        (None, "C2xC4xC1", InvalidOrder, 7),
        (None, "abelian(2,4, 0)", InvalidOrder, 12),
        ("C2xC4xC4xC4", "[x1;]", ParseError, 4),
        ("C2xC4xC4xC4", "[x1; ; x2]", ParseError, 5),
        ("C2xC4xC4xC4", "[x1; x2", ParseError, 7),
        ("C2xC4xC4xC4", "[x1, x2]", ParseError, 3),
        ("C2xC4xC4xC4", "x1*", ParseError, 3),
        ("C2xC4xC4xC4", "x1**x2", ParseError, 3),
        ("C2xC4xC4xC4", "(x1*x2", ParseError, 6),
        ("C2xC4xC4xC4", "x2^", ParseError, 3),
        ("C2xC4xC4xC4", "(1,2)", ParseError, 5),
        ("C2xC4xC4xC4", "(0,1,,0)", ParseError, 5),
        ("C3xC3", "(1,)", ParseError, 3),
        ("heis(3)", "(1,)", ParseError, 3),
        ("heis(3)", "(1,,2)", ParseError, 3),
        ("heis(3)", "(0,1", ParseError, 4),
        ("heis(3)", "[(1,2)]", ParseError, 6),
    ]
    for spec, text, error, pos in cases:
        with pytest.raises(error) as info:
            if spec is None:
                build_group(text)
            elif text.startswith("["):
                parse_tuple(build_group(spec), text)
            else:
                parse_element(build_group(spec), text)
        assert info.value.pos == pos, (spec, text)


def test_render_round_trip(c2c4cubed, heis3, q8):
    P = build_group("prod(C3xC3,heis(3))")
    for G in (c2c4cubed, heis3, q8, P):
        for a in range(0, G.order, max(1, G.order // 17)):
            text = render_element(G, a)
            assert parse_element(G, text) == a
            assert render_element(G, parse_element(G, text)) == text


def test_render_tuple_round_trip(c2c4cubed):
    G = c2c4cubed
    T = parse_tuple(G, "[x2; x3; x4; x2^-1; x3^-1; x4^-1*x1; x1]")
    text = render_tuple(T)
    again = parse_tuple(G, text)
    assert again.entries == T.entries
    assert render_tuple(again) == text


def test_table_names_round_trip():
    # every named element of the bundled tables reads back as itself alone,
    # in a tuple literal, and on either side of a product with another table
    tables = [f"cayley:{bundled_cayley_path(name)}" for name in ("d4", "q8", "s3")]
    specs = tables + [f"prod({a},{b})" for a, b in itertools.permutations(tables, 2)]
    for spec in specs:
        G = build_group(spec)
        for a in G.elements():
            assert parse_element(G, render_element(G, a)) == a, (spec, a)
        T = GenTuple(G, tuple(G.elements()))
        assert parse_tuple(G, render_tuple(T)) == T, spec
