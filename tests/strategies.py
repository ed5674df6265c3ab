"""Shared hypothesis strategies: random Burling trees and derivations
drawn through the seeded generators in burling.catalog."""

import random

from hypothesis import strategies as st

from burling.catalog import random_derivation, random_tree
from burling.trees import Derivation

_SEED = st.integers(min_value=0, max_value=2**48)


@st.composite
def trees(draw, max_vertices=14):
    return random_tree(random.Random(draw(_SEED)), max_vertices)


@st.composite
def derivations(draw, max_vertices=14):
    return random_derivation(random.Random(draw(_SEED)), max_vertices)


@st.composite
def full_derivations(draw, max_vertices=14):
    """Derivations keeping every tree vertex."""
    t = draw(trees(max_vertices))
    return Derivation(t, frozenset(t.vertices))


# Certificate-shaped text: a header, a result and reason line, then lines
# built from section keys and labels of the square C4 (u, v, x, y), so that
# most examples get past the header into the section parsers and checkers.
_CERT_HEADS = (
    "",
    "cert_version: 1\n",
    "cert_version: 1\nresult burling\ntree\n",
    "cert_version: 1\nresult not_burling\n",
)
_CERT_REASONS = ("", "reason \n") + tuple(
    f"reason {tag}\n"
    for tag in ("triangle", "wheel", "flower", "filter", "orientation", "exhausted")
)
_CERT_KEYS = (
    "triangle", "hole", "center", "petal", "subgraph", "rule", "stats", "edge",
    "apex", "path", "hole1", "hole2", "hole3", "root", "edges", "last_born",
    "choose", "kept",
)
_CERT_LABELS = (
    "u", "v", "x", "y", "z", "hole", "domino", "theta", "dumbbell",
    "orientations=1", "subsets=2", "subsets=x", "=", "x>u", "u:x", "0",
)
_cert_lines = st.builds(
    lambda key, labels: " ".join((key, *labels)),
    st.sampled_from(_CERT_KEYS),
    st.lists(st.sampled_from(_CERT_LABELS), max_size=6),
)
certificate_texts = st.one_of(
    st.text(max_size=120),
    st.builds(
        lambda head, reason, lines: head + reason + "".join(f"{x}\n" for x in lines),
        st.sampled_from(_CERT_HEADS),
        st.sampled_from(_CERT_REASONS),
        st.lists(_cert_lines, max_size=8),
    ),
)
