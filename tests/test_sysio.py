import numpy as np
import pytest

from multiwit import (
    ParseError,
    RandomSource,
    parse_system,
)
from multiwit.sysio import MAX_EXPONENT, MAX_GROUP_SIZE, _tokenize

from conftest import evaluate

SAMPLE = """
# a plane cubic with two singleton groups
group x; group y;
f = y^2 - 2*x*y - x^3 + x;
"""


def test_random_source_is_reproducible():
    a = RandomSource(seed=7, stream=3)
    b = RandomSource(seed=7, stream=3)
    assert [a.gaussian_complex() for _ in range(5)] == [
        b.gaussian_complex() for _ in range(5)
    ]


def test_random_source_streams_differ():
    a = RandomSource(seed=7, stream=3)
    b = RandomSource(seed=7, stream=4)
    assert a.gaussian_complex() != b.gaussian_complex()


def test_substream_is_stateless_value():
    root = RandomSource(seed=7, stream=0)
    x = root.substream(5).gaussian_complex()
    # drawing from the root does not disturb derived substreams
    root.gaussian_complex()
    assert root.substream(5).gaussian_complex() == x


def test_a_substream_builds_its_generator_on_its_first_draw():
    sub = RandomSource(seed=7, stream=3).substream(5)
    assert "_gen" not in vars(sub)
    # the draws are those of the Philox generator built at once
    eager = np.random.Generator(np.random.Philox(key=sub.seed + (sub.stream << 64)))
    theta = 2 * np.pi * eager.random()
    assert sub.unit_complex() == complex(np.cos(theta), np.sin(theta))
    re, im = eager.normal(size=2)
    assert sub.gaussian_complex() == complex(re, im) / np.sqrt(2)
    data = eager.normal(size=(2, 3))
    assert np.array_equal(sub.gaussian_complex_array(3), (data[0] + 1j * data[1]) / np.sqrt(2))


def test_unit_complex_on_unit_circle():
    rs = RandomSource(seed=1)
    for _ in range(10):
        z = rs.unit_complex()
        assert abs(abs(z) - 1.0) < 1e-12


def test_parse_sample_system():
    F = parse_system(SAMPLE)
    assert F.grouping.names == ("x", "y")
    assert F.grouping.sizes == (1, 1)
    assert len(F) == 1
    p = F.polys[0]
    pt = np.array([2.0, 3.0], dtype=complex)
    # f(2,3) = 9 - 12 - 8 + 2 = -9
    assert abs(evaluate(p, pt) + 9) < 1e-12


def test_parse_sized_groups_and_literals():
    F = parse_system("group v[2]; g = 2i*v1 + 1e-3*v2 - (v1 - v2)^2;")
    assert F.grouping.sizes == (2,)
    pt = np.array([1.0, 2.0], dtype=complex)
    expected = 2j * 1 + 1e-3 * 2 - (1 - 2) ** 2
    assert abs(evaluate(F.polys[0], pt) - expected) < 1e-12


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_system("group x;\nf = x + z;")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_system("group x; group x; f = x;")
    with pytest.raises(ParseError):
        parse_system("group x; f = x")  # missing semicolon
    with pytest.raises(ParseError):
        parse_system("f = 1;")  # no groups declared
    with pytest.raises(ParseError):
        parse_system("group x; f = x; group y;")  # group after polynomial



@pytest.mark.parametrize("text, expected", [
    # a second dot makes a literal that float() refuses
    ("1.2.3", ("bad number literal '1.2.3'", 1, 1)),
    # an exponent only when a digit follows the e (or its sign)
    ("2e", [("num", 2 + 0j, 1, 1), ("id", "e", 1, 2), ("eof", "", 1, 3)]),
    ("2e+", [("num", 2 + 0j, 1, 1), ("id", "e", 1, 2), ("sym", "+", 1, 3),
             ("eof", "", 1, 4)]),
    ("1e-3i", [("num", 0.001j, 1, 1), ("eof", "", 1, 6)]),
    (".5", [("num", 0.5 + 0j, 1, 1), ("eof", "", 1, 3)]),
    ("x_1", [("id", "x_1", 1, 1), ("eof", "", 1, 4)]),
    ("\tx", [("id", "x", 1, 2), ("eof", "", 1, 3)]),
    ("x # c\ny", [("id", "x", 1, 1), ("id", "y", 2, 1), ("eof", "", 2, 2)]),
    # a comment's characters count towards the column of the end of input
    ("group x; f = x # c", ("expected ';', found ''", 1, 19)),
])
def test_token_rules(text, expected):
    """A list is the tokens of `text`; a tuple is the ParseError that
    parsing it raises, as (message, line, column)."""
    if isinstance(expected, list):
        assert _tokenize(text) == expected
        return
    message, line, col = expected
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line}, column {col}: {message}", line, col)


@pytest.mark.parametrize("text, col", [
    ("group x; group y; f = 1e999*x*y - 1;", 23),
    ("group v[1e999]; f = v1;", 9),
    ("group x; f = x^1e999 - 1;", 16),
])
def test_non_finite_literals_are_refused(text, col):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert str(exc.value) == f"line 1, column {col}: number literal '1e999' is not finite"


@pytest.mark.parametrize("text, col, message", [
    ("group x; f = x^100000000 - 1;", 16, "exponent must be an integer from 0 to 1000"),
    ("group v[100000000]; f = v1;", 9, "group size must be an integer from 1 to 1000"),
    ("group x; f = x^1001;", 16, "exponent must be an integer from 0 to 1000"),
    ("group v[1001]; f = v1;", 9, "group size must be an integer from 1 to 1000"),
    ("group v[0]; f = v1;", 9, "group size must be an integer from 1 to 1000"),
    # C(202, 2) = 20,301 terms; refused at the ^, before any multiplication
    ("group x; group y; group z; f = (x + y + z)^200;", 43,
     "a power may expand to at most 2000 terms"),
    ("group x; group y; group z; f = (x + y + z)^62 - 1;", 43,
     "a power may expand to at most 2000 terms"),
    # two admitted powers of 1,953 terms each; refused at the *, before the
    # 3,814,209 products of their terms
    ("group x; group y; group z; f = (x + y + z)^61*(x + y + z)^61;", 46,
     "a product may expand to at most 2000 terms"),
])
def test_oversized_exponents_and_groups_are_refused(text, col, message):
    # refused at the token, before the parser builds the power or the names
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert str(exc.value) == f"line 1, column {col}: {message}"


def test_the_largest_exponent_and_group_parse():
    F = parse_system(f"group v[{MAX_GROUP_SIZE}]; f = v1^{MAX_EXPONENT} - v{MAX_GROUP_SIZE};")
    assert F.grouping.nvars == MAX_GROUP_SIZE
    assert F.polys[0].multidegree() == (MAX_EXPONENT,)


@pytest.mark.parametrize("text, name, col", [
    ("group x; group y; f = 1e300*1e300*x*y - 1;", "f", 19),  # an overflowing product
    ("group x;\ng = x - 1;\nh = 1e200^2*x;", "h", 1),  # a power of a finite literal
    ("group x; f = 1e308*x + 1e308*x - 1;", "f", 10),  # a sum of like terms
])
def test_non_finite_coefficients_are_refused(text, name, col):
    # every literal is finite, but a coefficient the parser builds from them
    # is not: the polynomial is refused at its name
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert str(exc.value).endswith(f"column {col}: polynomial {name!r} has a coefficient "
                                   "that is not finite")
