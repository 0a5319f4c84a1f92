import json
from pathlib import Path

import numpy as np
import pytest

from orbitkit import cli, dualpair
from orbitkit.classify import NOT_PSEUDOHOLOMORPHIC
from orbitkit.cli import main, run_verify_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rep_classify_roundtrip(tmp_path, capsys):
    for family, params, t, u in (("sp", "3", 2, 0), ("u", "2,2", 1, 1),
                                 ("sostar", "3", 1, 0)):
        path = tmp_path / "x.json"
        code, out = run(capsys, "rep", "--family", family, "--params", params,
                        "--type", f"{t},{u}")
        assert code == 0
        path.write_text(out)
        code, out = run(capsys, "classify", "--input", str(path))
        assert code == 0
        got = json.loads(out)
        assert got["type"] == [t, u]
        assert got["holomorphic"] == (u == 0)
        assert got["closure_max_s"] == (t if u == 0 else None)


def test_classify_plain_matrix_with_flags(tmp_path, capsys):
    path = tmp_path / "m.json"
    # e_{1,0} in sp(1,R) written as a bare nested list
    path.write_text(json.dumps([[0.0, -1.0], [0.0, 0.0]]))
    code, out = run(capsys, "classify", "--family", "sp", "--params", "1",
                    "--input", str(path))
    assert code == 0
    assert json.loads(out)["type"] == [1, 0]


def test_classify_requires_family(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[0.0, 0.0], [0.0, 0.0]]")
    code, _ = run(capsys, "classify", "--input", str(path))
    assert code == 1


def test_missing_file_is_an_error(capsys):
    code, _ = run(capsys, "classify", "--family", "sp", "--params", "1",
                  "--input", "/nonexistent/x.json")
    assert code == 1


def test_ks_quadric_point(capsys):
    code, out = run(capsys, "ks", "--family", "so2q", "--params", "5", "--s", "1")
    assert code == 0
    got = json.loads(out)
    entries = got["pplus"]["entries"]
    assert entries[0][0] == [0.0, 1.0] and entries[1][0] == [1.0, 0.0]
    assert all(e == [[0.0, 0.0]] for e in entries[2:])


def test_reduce_histogram(capsys):
    code, out = run(capsys, "reduce", "--case", "o-sp", "--sprime", "2",
                    "--ssecond", "0", "--target", "3", "--samples", "60",
                    "--seed", "7")
    assert code == 0
    got = json.loads(out)
    assert got["target"] == "sp(3,R)"
    assert sum(got["histogram"].values()) == 60
    assert set(got["histogram"]) <= {"0,0", "1,0", "2,0"}
    _, again = run(capsys, "reduce", "--case", "o-sp", "--sprime", "2",
                   "--ssecond", "0", "--target", "3", "--samples", "60",
                   "--seed", "7")
    assert again == out


# (case, s', target); each committed file is the stdout of
#   orbitkit reduce --case CASE --sprime S --target T --samples 200 --seed 7
GOLDEN_REDUCE = (("o-sp", "3", "3"), ("u-u", "2", "2,2"),
                 ("sp-sostar", "2", "4"), ("sp-so2q", "1", "4"))


@pytest.mark.parametrize("case,sprime,target", GOLDEN_REDUCE,
                         ids=[g[0] for g in GOLDEN_REDUCE])
def test_reduce_matches_golden_histogram(capsys, case, sprime, target):
    code, out = run(capsys, "reduce", "--case", case, "--sprime", sprime,
                    "--target", target, "--samples", "200", "--seed", "7")
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"reduce-{case}.json"
    assert out.encode() == golden.read_bytes()


def test_reduce_reports_unclassified_samples(monkeypatch, capsys):
    argv = ("reduce", "--case", "o-sp", "--sprime", "2", "--ssecond", "0",
            "--target", "3", "--samples", "20", "--seed", "7")
    _, clean = run(capsys, *argv)
    assert "unclassified" not in json.loads(clean)
    real = dualpair.classify_many

    def fails_on_fifth(desc, Xs, tol=1e-8):
        types = real(desc, Xs, tol=tol)
        types[4] = NOT_PSEUDOHOLOMORPHIC
        return types

    monkeypatch.setattr(dualpair, "classify_many", fails_on_fifth)
    code, out = run(capsys, *argv)
    assert code == 0
    got = json.loads(out)
    assert got["unclassified"] == 1
    assert sum(got["histogram"].values()) == 19
    assert list(got)[:-1] == list(json.loads(clean))


def test_bracket_polarization_output(tmp_path, capsys):
    path = tmp_path / "xi.json"
    _, out = run(capsys, "rep", "--family", "sp", "--params", "2",
                 "--type", "1,0")
    path.write_text(out)
    code, out = run(capsys, "bracket", "--at", str(path), "--pairs", "pplus")
    assert code == 0
    got = json.loads(out)
    d = got["zeta_zeta"]["rows"]
    assert d == 3 and got["zeta_zeta"]["cols"] == 3
    flat = np.array(got["zeta_zeta"]["entries"], dtype=float)
    assert np.abs(flat).max() <= 1e-12
    assert np.abs(np.array(got["zeta_zetabar"]["entries"], float)).max() > 0.1


@pytest.mark.parametrize("point,message", (
    ([[float("nan"), 0.0], [0.0, 0.0]], "non-finite"),
    ([[0.0] * 3] * 3, "needs 4 x 4"),
), ids=("nan", "3x3-on-sp(2,R)"))
def test_bracket_rejects_bad_points(tmp_path, capsys, point, message):
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(point))
    params = "1" if len(point) == 2 else "2"
    code = main(["bracket", "--family", "sp", "--params", params,
                 "--at", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("orbitkit: ") and message in captured.err


def test_jordan_norm_and_rank(tmp_path, capsys):
    from orbitkit.jordan import AlbertElement
    path = tmp_path / "A.json"
    path.write_text(json.dumps(AlbertElement.identity("C").to_json()))
    code, out = run(capsys, "jordan", "--norm", str(path))
    assert code == 0 and json.loads(out)["norm"] == [1.0, 0.0]
    code, out = run(capsys, "jordan", "--rank", str(path))
    assert code == 0 and json.loads(out)["rank"] == 3
    path.write_text(json.dumps(AlbertElement.diagonal("R", 2, 3, 4).to_json()))
    code, out = run(capsys, "jordan", "--norm", str(path))
    assert code == 0 and json.loads(out)["norm"] == 24.0


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "triples", "--seed", "1")
    assert code == 0
    got = json.loads(out)
    assert got["passed"] is True
    assert {c["name"] for c in got["checks"]} == {
        "triples-sp(4,R)", "triples-u(3,3)", "triples-so*(8)",
        "triples-so(2,6)"}
    for c in got["checks"]:
        assert c["property"] and c["passed"]


def test_verify_deterministic_bytes():
    _, r1 = run_verify_suite("invariants", seed=3)
    _, r2 = run_verify_suite("invariants", seed=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _, r3 = run_verify_suite("poisson", seed=3, samples=10)
    _, r4 = run_verify_suite("poisson", seed=3, samples=10)
    assert json.dumps(r3, sort_keys=True) == json.dumps(r4, sort_keys=True)


def test_verify_failure_exit_code(monkeypatch):
    def broken(seed, tol, samples):
        return [cli._check("stub", "always fails", False, 1.0)]
    monkeypatch.setitem(cli.SUITE_FUNCS, "triples", broken)
    code, report = run_verify_suite("triples", seed=1)
    assert code == 1 and report["passed"] is False


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv("ORBITKIT_TOL", "1e-6")
    assert cli._default_tol() == 1e-6
    _, report = run_verify_suite("invariants", seed=1)
    assert report["tolerance"] == 1e-6
    monkeypatch.delenv("ORBITKIT_TOL")
    assert cli._default_tol() == 1e-9


def test_table_output(capsys):
    code, out = run(capsys, "verify", "--suite", "contraction",
                    "--output", "table")
    assert code == 0
    assert "PASS" in out and "suite contraction: ok" in out
    code, out = run(capsys, "classify", "--family", "sp", "--params", "1",
                    "--input", "/nonexistent.json", "--output", "table")
    assert code == 1


def test_classify_passes_tolerance_through(tmp_path, monkeypatch, capsys):
    path = tmp_path / "x.json"
    _, out = run(capsys, "rep", "--family", "sp", "--params", "2", "--type", "1,0")
    path.write_text(out)
    seen = []

    def recording(real):
        def wrapped(*a, tol):
            seen.append(tol)
            return real(*a, tol=tol)
        return wrapped

    monkeypatch.setattr(cli, "classify_nilpotent", recording(cli.classify_nilpotent))
    monkeypatch.setattr(cli, "in_closure", recording(cli.in_closure))
    for tol in (float(np.finfo(float).eps), 3e-13):
        seen.clear()
        code, out = run(capsys, "classify", "--input", str(path),
                        "--tolerance", repr(tol))
        assert code == 0 and json.loads(out)["type"] == [1, 0]
        assert seen and set(seen) == {tol}


def test_classify_tolerance_below_machine_precision_is_an_error(tmp_path, capsys):
    path = tmp_path / "x.json"
    _, out = run(capsys, "rep", "--family", "sp", "--params", "2", "--type", "1,0")
    path.write_text(out)
    code = main(["classify", "--input", str(path), "--tolerance", "1e-17"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("orbitkit: ") and "machine epsilon" in captured.err


@pytest.mark.parametrize("count", ["-1", "0"])
def test_samples_must_be_positive(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "classify", "--samples", count])
    assert exc.value.code == 2
    assert "--samples: must be a positive integer" in capsys.readouterr().err


def test_matrix_codec_roundtrip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 2))
    assert np.array_equal(cli.matrix_from_json(cli.matrix_to_json(M)), M)
    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.array_equal(cli.matrix_from_json(cli.matrix_to_json(Z)), Z)
