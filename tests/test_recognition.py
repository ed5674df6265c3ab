from itertools import product

from hypothesis import given
import pytest

from burling.errors import BudgetExceededError, ParseError, ValidationError
from burling.generators import gen_figure, gen_k4_subdivision, gen_theta, gen_wheel
from burling.graphs import Graph, OrientedGraph, underlying
from burling.recognition import (
    BURLING,
    NOT_A_K4_SUBDIVISION,
    NOT_BURLING,
    Exhausted,
    classify_k4_subdivision,
    find_flower,
    find_wheel,
    orientation_constraints,
    parse_certificate,
    recognize,
    recognize_oriented,
    serialize_certificate,
    verify_certificate,
    verify_filter_witness,
    verify_flower,
    verify_orientation_witness,
    verify_triangle,
    verify_wheel,
)
from burling.sequential import nobility_oriented
from burling.trees import check_derivation, derive

from .strategies import certificate_texts


def dumbbell_instance() -> OrientedGraph:
    return OrientedGraph(
        [f"x{i}" for i in range(1, 6)] + [f"y{i}" for i in range(1, 6)],
        [
            ("x1", "x2"),
            ("x3", "x2"),
            ("x3", "x4"),
            ("x5", "x4"),
            ("x1", "x5"),
            ("y1", "y2"),
            ("y3", "y2"),
            ("y3", "y4"),
            ("y5", "y4"),
            ("y1", "y5"),
            ("x4", "y4"),
        ],
    )


def domino_instance() -> OrientedGraph:
    return OrientedGraph(
        ["x", "y", "a1", "a2", "a3", "b1", "b2", "b3"],
        [
            ("a1", "a2"),
            ("a1", "y"),
            ("a2", "a3"),
            ("b1", "b2"),
            ("b1", "y"),
            ("b2", "b3"),
            ("x", "a3"),
            ("x", "b3"),
            ("x", "y"),
        ],
    )


def test_triangle_detector():
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    verdict = recognize(tri)
    assert verdict.outcome == NOT_BURLING
    assert verdict.reason.tag == "triangle"
    assert verify_triangle(tri, verdict.reason.vertices)
    assert not verify_triangle(tri, ("a", "b", "b"))


def test_wheel_detector():
    g = gen_wheel(6, {0, 2, 4})
    verdict = recognize(g)
    assert verdict.outcome == NOT_BURLING
    assert verdict.reason.tag == "wheel"
    assert verify_wheel(g, verdict.reason.hole, verdict.reason.center)
    assert not verify_wheel(g, verdict.reason.hole, verdict.reason.hole[0])
    assert find_wheel(underlying(derive(gen_figure("c6")))) is None


def test_flower_detector():
    g = gen_figure("flower12")
    verdict = recognize(g)
    assert verdict.outcome == NOT_BURLING
    assert verdict.reason.tag == "flower"
    hole, petals = verdict.reason.hole, verdict.reason.petals
    assert verify_flower(g, hole, petals)
    short = dict(petals)
    short.pop(next(iter(short)))
    assert not verify_flower(g, hole, short)
    assert find_flower(underlying(derive(gen_figure("k33")))) is None


def test_filter_detector():
    for name in ("k4-all-subdivided", "k4-one-edge", "k4-matching"):
        g = gen_figure(name)
        verdict = recognize(g)
        assert verdict.outcome == NOT_BURLING
        assert verdict.reason.tag == "filter"
        assert verify_filter_witness(g, verdict.reason.subgraph)
    assert not verify_filter_witness(gen_figure("k4-matching"), ("a", "b"))


def test_hole_rule():
    g = OrientedGraph("uvxy", [("u", "x"), ("u", "y"), ("v", "x"), ("y", "v")])
    reason = orientation_constraints(g)
    assert reason.rule == "hole"
    assert reason.witness == (("hole", ("u", "x", "v", "y")),)
    assert verify_orientation_witness(g, reason)
    verdict = recognize_oriented(g)
    assert verdict.outcome == NOT_BURLING and verdict.reason.rule == "hole"


def test_dumbbell_rule():
    g = dumbbell_instance()
    reason = orientation_constraints(g)
    assert reason.rule == "dumbbell"
    assert verify_orientation_witness(g, reason)
    # the rule is sound: the exhaustive search also rejects this orientation
    assert nobility_oriented(g) is None
    verdict = recognize_oriented(g)
    assert verdict.outcome == NOT_BURLING and verdict.reason.rule == "dumbbell"


def test_domino_rule():
    g = domino_instance()
    reason = orientation_constraints(g)
    assert reason.rule == "domino"
    assert verify_orientation_witness(g, reason)
    assert nobility_oriented(g) is None
    verdict = recognize_oriented(g)
    assert verdict.outcome == NOT_BURLING and verdict.reason.rule == "domino"


def test_theta_rule_is_shadowed_by_hole_rule():
    # every orientation of the smallest long theta that violates the theta
    # constraint already contains a hole that is not chandelier-oriented,
    # so the sweep never surfaces the theta rule
    theta = underlying(gen_theta(3, 3, 3))
    edges = sorted(theta.edges)
    tally = {}
    for bits in product((0, 1), repeat=len(edges)):
        arcs = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(edges, bits)]
        res = orientation_constraints(OrientedGraph(sorted(theta.vertices), arcs))
        key = None if res is None else res.rule
        tally[key] = tally.get(key, 0) + 1
    assert tally == {None: 8, "hole": 504}


def test_positive_recognition_carries_derivation():
    for name in ("square-c4", "k33", "c6"):
        g = derive(gen_figure(name))
        verdict = recognize(g)
        assert verdict.is_burling
        assert check_derivation(g, verdict.derivation)


def test_feedback_graph_exhausts_the_search():
    verdict = recognize(gen_figure("feedback"))
    assert verdict.outcome == NOT_BURLING
    assert verdict.reason == Exhausted(orientations=2, subsets=744)


def test_recognition_is_label_independent():
    g = gen_wheel(6, {0, 2, 4})
    relabeled = Graph(
        [v.replace("c", "n") for v in g.vertices],
        [(u.replace("c", "n"), v.replace("c", "n")) for u, v in g.edges],
    )
    verdict = recognize(relabeled)
    assert verdict.outcome == NOT_BURLING and verdict.reason.tag == "wheel"


def test_budget_and_obstructions_only():
    big = underlying(derive(gen_figure("c6")))
    with pytest.raises(BudgetExceededError):
        recognize(big, budget=4)
    with pytest.raises(BudgetExceededError):
        recognize(big, obstructions_only=True)
    # an obstruction keeps obstructions-only conclusive
    verdict = recognize(gen_wheel(6, {0, 2, 4}), obstructions_only=True)
    assert verdict.outcome == NOT_BURLING


def test_classify_k4_subdivision():
    assert classify_k4_subdivision(gen_k4_subdivision((1, 1, 2, 2, 2, 2))) == BURLING
    assert classify_k4_subdivision(gen_figure("k4-all-subdivided")) == NOT_BURLING
    assert classify_k4_subdivision(gen_figure("k4-one-edge")) == NOT_BURLING
    assert classify_k4_subdivision(gen_figure("k4-matching")) == NOT_BURLING
    assert classify_k4_subdivision(gen_k4_subdivision((1,) * 6)) == NOT_BURLING
    c5 = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    assert classify_k4_subdivision(c5) == NOT_A_K4_SUBDIVISION
    assert recognize(gen_k4_subdivision((1, 1, 2, 2, 2, 2))).is_burling


def cert_round_trip(g, verdict):
    text = serialize_certificate(verdict)
    parsed = parse_certificate(text)
    assert serialize_certificate(parsed) == text
    assert verify_certificate(g, parsed)
    return parsed


def test_certificates_round_trip():
    square = derive(gen_figure("square-c4"))
    cert_round_trip(square, recognize(square))
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    cert_round_trip(tri, recognize(tri))
    wheel = gen_wheel(6, {0, 2, 4})
    cert_round_trip(wheel, recognize(wheel))
    flower = gen_figure("flower12")
    cert_round_trip(flower, recognize(flower))
    k4 = gen_figure("k4-all-subdivided")
    cert_round_trip(k4, recognize(k4))
    feedback = gen_figure("feedback")
    cert_round_trip(feedback, recognize(feedback))
    dumb = dumbbell_instance()
    cert_round_trip(dumb, recognize_oriented(dumb))


def test_certificates_catch_tampering():
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    text = serialize_certificate(recognize(tri))
    tampered = parse_certificate(text.replace("triangle a b c", "triangle a b d"))
    assert not verify_certificate(tri, tampered)
    # an orientation witness is meaningless for undirected input
    dumb = dumbbell_instance()
    cert = parse_certificate(serialize_certificate(recognize_oriented(dumb)))
    assert not verify_certificate(underlying(dumb), cert)


def test_certificate_parse_errors():
    negative = "cert_version: 1\nresult not_burling\n"
    for text in (
        "no header\n",
        "cert_version: 2\nresult burling\n",
        "cert_version: 1\n",
        "cert_version: 1\nresult maybe\n",
        "cert_version: 1\nresult \n",
        negative + "reason vibes\n",
        "cert_version: 1\nresult burling\nno tree\n",
        # missing sections
        negative + "reason wheel\ncenter h\n",
        negative + "reason orientation\nhole a b c d\n",
        negative + "reason orientation\nrule domino\nhole1 a b c d\n",
        # malformed stats lines
        negative + "reason exhausted\nstats orientations\n",
        negative + "reason exhausted\nstats orientations=1 subsets=x\n",
        negative + "reason exhausted\nstats orientations=1 cost=2\n",
        # wrong label counts
        negative + "reason triangle\ntriangle a\n",
        negative + "reason wheel\nhole a b c d\ncenter h k\n",
        negative + "reason orientation\nrule theta\napex u\n"
        "hole1 a b c d\nhole2 a b c d\nhole3 a b c d\n",
        negative + "reason flower\nhole a b c d\npetal a\n",
    ):
        with pytest.raises(ParseError):
            parse_certificate(text)


@given(certificate_texts)
def test_certificate_fuzz_fails_only_with_input_errors(text):
    square = derive(gen_figure("square-c4"))
    try:
        verdict = parse_certificate(text)
        verify_certificate(square, verdict)
        verify_certificate(underlying(square), verdict)
    except (ParseError, ValidationError):
        pass


def test_exhausted_certificate_content():
    verdict = recognize(gen_figure("feedback"))
    parsed = parse_certificate(serialize_certificate(verdict))
    assert isinstance(parsed.reason, Exhausted)
    assert parsed.reason.orientations == 2
    assert parsed.reason.subsets == verdict.reason.subsets
