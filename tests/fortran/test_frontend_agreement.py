"""Strict and tolerant parsing are one parse under two policies.

``parse_source`` is ``parse_source_tolerant`` with a sink that raises on
the first diagnostic.  A seeded card mutator damages the dialect corpus
and the PERFECT sources the way real-world decks get damaged (dropped,
duplicated and truncated cards, text shifted across the column-6
boundary, junk in the label field, stray continuation marks) and checks,
for every mutant and every unmutated input:

* the tolerant parse never raises;
* the strict parse raises only :class:`~repro.errors.ReproError`;
* the strict parse raises exactly when the tolerant parse reports a
  diagnostic, on that diagnostic's line;
* otherwise both parses build the same tree.
"""

import glob
import os
import random

import pytest

from repro.errors import LexError, ParseError, ReproError
from repro.fortran.fixedform import parse_source_tolerant
from repro.fortran.parser import parse_source
from repro.perfect import all_benchmarks

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _inputs():
    out = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.f"))):
        with open(path) as fh:
            out[os.path.basename(path)] = fh.read()
    for bench in all_benchmarks():
        out.update(bench.sources)
    return out


INPUTS = _inputs()
NAMES = sorted(INPUTS)

#: mutants per seed; six seeds give 600 mutants
MUTANTS_PER_SEED = 100
SEEDS = range(6)


def _mutate_card(card: str, op: str, rng: random.Random) -> list:
    """Apply one card-level damage ``op``; returns the replacement cards."""
    if op == "drop":
        return []
    if op == "duplicate":
        return [card, card]
    if op == "truncate":
        return [card[:rng.randrange(len(card) + 1)]]
    if op == "shift-left":
        return [card[1:]]
    if op == "shift-right":
        return [" " + card]
    padded = card.ljust(6)
    if op == "label":
        junk = "".join(rng.choice("0123456789 XZ?.") for _ in range(5))
        return [junk + padded[5:]]
    # continuation: splice a mark into (or out of) column 6
    mark = rng.choice("&1+ 0")
    return [padded[:5] + mark + padded[6:]]


OPS = ("drop", "duplicate", "truncate", "shift-left", "shift-right",
       "label", "continuation")


def mutate(text: str, rng: random.Random):
    """Damage one to three cards of ``text``; returns the mutant and a
    description of what was done."""
    cards = text.splitlines()
    done = []
    for _ in range(rng.randint(1, 3)):
        if not cards:
            break
        i = rng.randrange(len(cards))
        op = rng.choice(OPS)
        cards[i:i + 1] = _mutate_card(cards[i], op, rng)
        done.append(f"{op}@{i + 1}")
    return "\n".join(cards) + "\n", ", ".join(done)


def check_agreement(text: str, name: str, what: str = "unmutated") -> None:
    tree, diags = parse_source_tolerant(text, name)
    try:
        strict = parse_source(text, name)
    except ReproError as err:
        assert diags, (f"{name} ({what}): strict raised {err!r} but the "
                       f"tolerant parse reported nothing")
        assert err.location is not None \
            and err.location.line == diags[0].line, (
                f"{name} ({what}): strict raised at {err.location}, first "
                f"diagnostic is {diags[0].describe()}")
        return
    assert not diags, (f"{name} ({what}): strict accepted input the "
                       f"tolerant parse repaired: {diags[0].describe()}")
    assert strict == tree, f"{name} ({what}): strict and tolerant trees differ"


@pytest.mark.parametrize("name", NAMES)
def test_unmutated_inputs_agree(name):
    check_agreement(INPUTS[name], name)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutants_agree(seed):
    rng = random.Random(seed)
    for _ in range(MUTANTS_PER_SEED):
        name = rng.choice(NAMES)
        text, what = mutate(INPUTS[name], rng)
        check_agreement(text, name, f"seed {seed}: {what}")


def test_unterminated_literal_is_located():
    name = "unterminated_literal.f"
    with pytest.raises(LexError) as info:
        parse_source(INPUTS[name], name)
    loc = info.value.location
    assert (loc.filename, loc.line) == (name, 5)
    assert loc.column == 13  # the opening quote of 'NO CLOSING QUOTE
    assert str(info.value).startswith(f"{name}:5:13:")


def _tagged(begin: str, end: str) -> str:
    return ("      SUBROUTINE S\n"
            f"C@INLINE {begin}\n"
            "      X = 1.0\n"
            f"C@INLINE {end}\n"
            "      END\n")


@pytest.mark.parametrize("begin,end,line", [
    ("BEGIN FOO X", "END 1", 3),   # site id is not a number
    ("BEGIN FOO 1", "END", 5),     # END tag names no site
    ("BEGIN FOO 1", "END Z", 5),   # END tag site id is not a number
], ids=["begin-site", "end-empty", "end-site"])
def test_malformed_inline_tag(begin, end, line):
    text = _tagged(begin, end)
    with pytest.raises(ParseError) as info:
        parse_source(text, "t.f")
    assert info.value.location.line == line
    _, diags = parse_source_tolerant(text, "t.f")
    assert (diags[0].code, diags[0].line) == ("bad-tag", line)
