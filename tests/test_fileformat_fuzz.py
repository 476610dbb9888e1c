"""Fuzz the three file parsers: whatever the text, only `ParseError` escapes.

Inputs are mostly lines of the formats' own directives with short token
lists drawn from labels, parities and rationals (well-formed or not), so
the fuzzer reaches the checks behind the first line; the rest is free text.
The parsers' token reader is checked against `Fraction` itself on the same
tokens and a few more.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superkit.families import build_gl
from superkit.fileformat import (
    ParseError,
    _Reader,
    parse_algebra,
    parse_module,
    parse_supercomm,
)

TOKENS = ("a", "b", "E11", "E12", "E21", "E22", "even", "odd", "0", "1", "-1",
          "1/2", "2/0", "x")
# each format's own directives, plus a comment, a bad directive and the
# rationals that make up matrix rows
DIRECTIVES = {
    "algebra": ("algebra", "basis", "bracket", "cartan", "rep", "repmat"),
    "module": ("module", "parity", "action"),
    "supercomm": ("algebra", "basis", "unit", "mul", "derivation"),
}
EXTRA_KEYS = ("#", "x", "0", "1", "-1", "1/2")

GL11 = build_gl(1, 1)
PARSERS = {
    "algebra": parse_algebra,
    "module": lambda text, strict: parse_module(text, GL11, strict),
    "supercomm": parse_supercomm,
}


def texts(name: str):
    line = st.builds(lambda key, toks: " ".join([key, *toks]),
                     st.sampled_from(DIRECTIVES[name] + EXTRA_KEYS),
                     st.lists(st.sampled_from(TOKENS), max_size=5))
    return st.one_of(st.lists(line, max_size=12).map("\n".join), st.text(max_size=60))


def _only_parse_error(name: str, text: str, strict: bool) -> None:
    try:
        PARSERS[name](text, strict)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=texts("algebra"), strict=st.booleans())
def test_parse_algebra_raises_only_parse_error(text, strict):
    _only_parse_error("algebra", text, strict)


@settings(max_examples=300, deadline=None)
@given(text=texts("module"), strict=st.booleans())
def test_parse_module_raises_only_parse_error(text, strict):
    _only_parse_error("module", text, strict)


@settings(max_examples=300, deadline=None)
@given(text=texts("supercomm"), strict=st.booleans())
@example(text="basis x\n", strict=True)
def test_parse_supercomm_raises_only_parse_error(text, strict):
    _only_parse_error("supercomm", text, strict)


def test_supercomm_rejects_duplicate_basis_labels():
    text = "basis a even\nbasis a odd\nunit 1 0\nmul a a a 1\n"
    with pytest.raises(ParseError, match="duplicate basis labels"):
        parse_supercomm(text, strict=False)


def fraction_or_error(tok: str, lineno: int):
    """What `Fraction` makes of tok: its value, or the parser's error text."""
    try:
        return Q(tok)
    except (ValueError, ZeroDivisionError):
        return f"line {lineno}: bad rational {tok!r}"


def read(f, *args):
    try:
        return f(*args)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("tok", TOKENS + ("+3", "-0", "0/5", "1.5", "1e2", "1_0", "2/0", "x"))
def test_the_token_reader_agrees_with_fraction(tok):
    expected = fraction_or_error(tok, 7)
    reader = _Reader("")
    # twice: the second answer comes from the parse's memo
    assert read(reader.rational, tok, 7) == expected == read(reader.rational, tok, 7)
    # a matrix row keeps only the nonzero entries, with the row's width
    row = read(_Reader("").row, ["0", tok, "1"], 7)
    if isinstance(expected, str):
        assert row == expected
    else:
        assert row == (3, [(1, expected)] * (expected != 0) + [(2, 1)])
