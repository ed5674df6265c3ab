import io

from hypothesis import HealthCheck, given, settings
import pytest

from burling.cli import main
from burling.generators import gen_figure
from burling.graphs import parse_graph, serialize_graph, underlying
from burling.recognition import parse_certificate
from burling.trees import derive, parse_derivation, serialize_derivation

from .strategies import certificate_texts


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def square_tree_text() -> str:
    return serialize_derivation(gen_figure("square-c4"))


def square_graph_text() -> str:
    return serialize_graph(derive(gen_figure("square-c4")))


def test_derive(run, tmp_path):
    path = tmp_path / "square.tree"
    path.write_text(square_tree_text())
    code, out, err = run(["derive", str(path)])
    assert code == 0 and err == ""
    assert parse_graph(out) == derive(gen_figure("square-c4"))


def test_derive_from_stdin(run):
    code, out, _ = run(["derive", "-"], stdin=square_tree_text())
    assert code == 0
    assert parse_graph(out) == derive(gen_figure("square-c4"))


def test_missing_file(run):
    code, out, err = run(["derive", "/no/such/file"])
    assert code == 2
    assert err.startswith("error:")


def test_verify_tree(run, tmp_path):
    tree = tmp_path / "t"
    graph = tmp_path / "g"
    tree.write_text(square_tree_text())
    graph.write_text(square_graph_text())
    code, out, _ = run(["verify", str(tree), str(graph)])
    assert code == 0 and out == "OK\n"
    # the underlying undirected graph verifies too
    graph.write_text(serialize_graph(underlying(derive(gen_figure("square-c4")))))
    code, out, _ = run(["verify", str(tree), str(graph)])
    assert code == 0 and out == "OK\n"


def test_verify_mismatch(run, tmp_path):
    tree = tmp_path / "t"
    graph = tmp_path / "g"
    tree.write_text(square_tree_text())
    graph.write_text(serialize_graph(derive(gen_figure("c6"))))
    code, out, _ = run(["verify", str(tree), str(graph)])
    assert code == 1
    assert out == "graph vertex w1 is not derived\n"


# the files are rewritten on every example, so sharing tmp_path is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=certificate_texts)
def test_verify_fuzz_exits_cleanly(run, tmp_path, text):
    cert = tmp_path / "cert"
    graph = tmp_path / "g"
    cert.write_text(text, encoding="utf-8")
    graph.write_text(square_graph_text())
    code, out, err = run(["verify", str(cert), str(graph)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_recognize_positive_with_cert(run, tmp_path):
    graph = tmp_path / "g"
    cert = tmp_path / "cert"
    graph.write_text(square_graph_text())
    code, out, _ = run(["recognize", str(graph), "--cert", str(cert)])
    assert code == 0 and out == "BURLING\n"
    verdict = parse_certificate(cert.read_text())
    assert verdict.is_burling
    code, out, _ = run(["verify", str(cert), str(graph)])
    assert code == 0 and out == "OK\n"


def test_recognize_negative_pipeline(run, tmp_path):
    code, wheel, _ = run(["gen", "wheel", "6", "0,2,4"])
    code, out, _ = run(["recognize", "-"], stdin=wheel)
    assert code == 1 and out == "NOT_BURLING wheel\n"

    cert = tmp_path / "cert"
    graph = tmp_path / "g"
    graph.write_text(wheel)
    run(["recognize", str(graph), "--cert", str(cert)])
    code, out, _ = run(["verify", str(cert), str(graph)])
    assert code == 0 and out == "OK\n"
    tampered = cert.read_text().replace("center h", "center c1")
    cert.write_text(tampered)
    code, out, _ = run(["verify", str(cert), str(graph)])
    assert code == 1
    assert out == "certificate does not verify against the graph\n"


def test_recognize_budget_paths(run, monkeypatch):
    c6 = serialize_graph(underlying(derive(gen_figure("c6"))))
    code, out, _ = run(["recognize", "-", "--budget", "4"], stdin=c6)
    assert code == 3 and out.startswith("INCONCLUSIVE")
    monkeypatch.setenv("BURLING_BUDGET", "4")
    code, out, _ = run(["recognize", "-"], stdin=c6)
    assert code == 3 and out.startswith("INCONCLUSIVE")
    monkeypatch.setenv("BURLING_BUDGET", "junk")
    code, out, err = run(["recognize", "-"], stdin=c6)
    assert code == 2 and "BURLING_BUDGET" in err
    monkeypatch.delenv("BURLING_BUDGET")
    code, out, _ = run(["recognize", "-", "--obstructions-only"], stdin=c6)
    assert code == 3 and out.startswith("INCONCLUSIVE")


def test_recognize_exhausted_search(run):
    code, fb, _ = run(["gen", "figure", "feedback"])
    code, out, _ = run(["recognize", "-"], stdin=fb)
    assert (code, out) == (1, "NOT_BURLING exhausted\n")


def test_nobility(run):
    code, out, _ = run(["nobility", "-"], stdin="directed\na c\nb c\n")
    assert code == 0 and out == "1\n"
    code, out, _ = run(["nobility", "-"], stdin=square_graph_text())
    assert code == 0 and out == "2\n"
    code, out, _ = run(["nobility", "-"], stdin="undirected\na b\nb c\na c\n")
    assert code == 1 and out == "NOT_BURLING\n"
    code, out, err = run(["nobility", "-", "--oriented"], stdin="undirected\na b\n")
    assert code == 2 and "directed" in err
    big = "directed\n" + "\n".join(f"v{i} w{i}" for i in range(7)) + "\n"
    code, out, _ = run(["nobility", "-"], stdin=big)
    assert code == 3 and out.startswith("INCONCLUSIVE")


def test_transform_expand_to_c6(run, tmp_path):
    code, out, _ = run(
        ["transform", "-", "expand", "u>y:bottom:3"], stdin=square_tree_text()
    )
    assert code == 0
    assert derive(parse_derivation(out)) == derive(gen_figure("c6"))
    code, g, _ = run(["derive", "-"], stdin=out)
    code, out, _ = run(["nobility", "-"], stdin=g)
    assert code == 0 and out == "2\n"


def test_transform_ops_and_errors(run):
    tree = square_tree_text()
    code, out, _ = run(["transform", "-", "normalize"], stdin=tree)
    assert code == 0
    assert derive(parse_derivation(out)) == derive(gen_figure("square-c4"))
    code, out, _ = run(["transform", "-", "subdivide-bottom", "u", "y", "w"], stdin=tree)
    assert code == 0 and ("w" in parse_derivation(out).kept)
    code, _, err = run(["transform", "-", "contract", "u", "y"], stdin=tree)
    assert code == 2 and err.startswith("error:")
    code, _, err = run(["transform", "-", "normalize", "extra"], stdin=tree)
    assert code == 2
    code, _, err = run(["transform", "-", "expand", "uy:bottom:3"], stdin=tree)
    assert code == 2 and "u>v:bottom:3" in err
    code, _, err = run(["transform", "-", "frobnicate"], stdin=tree)
    assert code == 2 and "unknown op" in err


def test_decompose(run):
    code, out, _ = run(["decompose", "-"], stdin=square_graph_text())
    assert code == 0
    assert out == "node 0 kind=chandelier center=x vertices=u,v,x,y\n"
    code, _, err = run(["decompose", "-"], stdin="undirected\na b\n")
    assert code == 2 and "requires a directed graph" in err


def test_analyze_tree_document(run):
    code, out, _ = run(["analyze", "-"], stdin=square_tree_text())
    assert code == 0
    assert out == (
        "top_set u v x\n"
        "pivots x\n"
        "antennas u v\n"
        "branch u u\n"
        "branch v v\n"
        "branch x x\n"
        "branch y x\n"
        "holes\n"
        "hole u x v y pivot=x antennas=u,v bottom=y subordinate=y\n"
        "cutsets\n"
    )


def test_analyze_graph_document(run):
    code, theta, _ = run(["gen", "theta", "3", "3", "3"])
    code, out, _ = run(["analyze", "-"], stdin=theta)
    assert code == 0
    assert out == (
        "holes\n"
        "hole a1 a2 v b2 b1 u\n"
        "hole a1 a2 v c2 c1 u\n"
        "hole b1 b2 v c2 c1 u\n"
        "cutsets\n"
    )


def test_analyze_hole_budget(run):
    c6 = serialize_graph(derive(gen_figure("c6")))
    code, _, err = run(["analyze", "-", "--budget", "4"], stdin=c6)
    assert code == 3 and "hole enumeration" in err
    code, out, _ = run(["analyze", "-"], stdin=c6)
    assert code == 0 and "not-chandelier-oriented" not in out


def test_gen_families_parse_and_repeat(run):
    graph_calls = [
        ["gen", "wheel", "6", "0,2,4"],
        ["gen", "theta", "3", "4", "5"],
        ["gen", "flower", "4", "4,4,4,4"],
        ["gen", "k4-subdivision", "1,2,2,2,2,1"],
        ["gen", "chandelier", "a>c", "b>c"],
        ["gen", "luxury-chandelier", "a1>a2", "a2>c", "b1>b2", "b2>c"],
        ["gen", "figure", "nobility4"],
    ]
    for argv in graph_calls:
        code, out, _ = run(argv)
        assert code == 0
        parse_graph(out)
        assert run(argv)[1] == out
    code, out, _ = run(["gen", "figure", "k33"])
    assert code == 0
    parse_derivation(out)


def test_usage_errors_are_one_line(run):
    for argv, needle in (
        (["recognize", "-", "--budget", "x"], "invalid int value"),
        (["frob"], "invalid choice"),
        (["recognize"], "required: graph"),
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and needle in err
        assert err.count("\n") == 1
    with pytest.raises(SystemExit) as exit_info:
        run(["recognize", "--help"])
    assert exit_info.value.code == 0


def test_gen_errors(run):
    assert run(["gen", "wheel", "6"])[0] == 2
    assert run(["gen", "bogus"])[0] == 2
    assert run(["gen", "figure", "nope"])[0] == 2
    assert run(["gen", "k4-subdivision", "1,2,x"])[0] == 2
    assert run(["gen", "chandelier", "ab"])[0] == 2
    for argv in (
        ["gen", "wheel", "x", "0,2"],
        ["gen", "theta", "a", "3", "3"],
        ["gen", "flower", "x", "4"],
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
