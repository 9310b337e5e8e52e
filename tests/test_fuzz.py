"""Random texts through the whole pipeline: every input gives world views or
a typed `ElpError`, under every semantics."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from elps import objective
from elps import semantics as semantics_module
from elps.engine import compute_world_views
from elps.errors import ElpError
from elps.semantics import SemanticsId
from elps.syntax import load_program

# stray tokens, among them an unknown character and a comment sign
_TOKENS = ["a", "b", "X", "K", "M", "not", "v", ":-", ".", ",", "|", "(", ")", "-", "#true", "⊥", "%", "\n", "1", "?"]
_ATOMS = ["a", "b", "c", "-a", "p(X)", "p(c)", "q(X,Y)", "-q(c,d)", "r(Y)"]
_literals = st.builds(
    "{} {} {}".format,
    st.sampled_from(["", "", "", "not", "not not", "not not not"]),
    st.sampled_from(["", "", "", "K", "M", "K not", "M not not"]),
    st.sampled_from(_ATOMS + ["#true", "#false", "⊤", "⊥"]),
)
_heads = st.lists(st.sampled_from(_ATOMS), max_size=2).map(" | ".join)
_statements = st.one_of(
    st.builds("{} :- {}.".format, _heads, st.lists(_literals, min_size=1, max_size=3).map(", ".join)),
    _heads.filter(bool).map("{}.".format),
)
# statements with, in about half of the texts, one stray token among them
_texts = st.builds(
    lambda statements, token, at: " ".join([*statements[:at], token, *statements[at:]]),
    st.lists(_statements, max_size=4),
    st.sampled_from([""] * len(_TOKENS) + _TOKENS),
    st.integers(0, 4),
)

# small caps (an atom cap of 6 and a guess cap of 64, set in the test) keep
# each solve short; a program past them is refused with CapacityError


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_texts)
def test_random_texts_give_world_views_or_a_typed_error(text):
    try:
        program = load_program(text)
    except ElpError:
        return
    with patch.object(objective, "MAX_ATOMS", 6), patch.object(semantics_module, "MAX_GUESSES", 64):
        for semantics in SemanticsId:
            try:
                compute_world_views(program, semantics)
            except ElpError:
                pass
