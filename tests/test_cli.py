"""End-to-end tests for the command line interface."""

import hashlib
import json

import pytest

from chebcone import certifier, cli, multiset_cone, recurrence_engine, suites
from chebcone.cli import MAX_DEPTH, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_leading_depth_one(capsys):
    code, out, _ = run(capsys, "compute", "--n", "1", "--i", "0", "--j", "0")
    assert code == 0
    assert out.splitlines()[0] == "h~[2] + h~[4] + h~[6]"
    assert out.splitlines()[1] == "fold: h[2] + h[4] + h[6]"


def test_compute_penultimate_base_cases(capsys):
    code, out, _ = run(capsys, "compute", "--n", "0", "--i", "-1", "--j", "1")
    assert code == 0
    assert out.splitlines()[0] == "h~[0]"

    code, out, _ = run(capsys, "compute", "--n", "0", "--i", "0", "--j", "1")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_compute_modes_agree(capsys):
    code_raw, out_raw, _ = run(capsys, "compute", "--n", "2", "--i", "-1", "--j", "1",
                               "--mode", "raw")
    code_both, out_both, _ = run(capsys, "compute", "--n", "2", "--i", "-1", "--j", "1",
                                 "--mode", "both")
    assert code_raw == code_both == 0
    assert out_raw == out_both


def test_compute_json_format(capsys):
    code, out, _ = run(capsys, "compute", "--n", "1", "--i", "0", "--j", "0",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["element"] == [[2, "1"], [4, "1"], [6, "1"]]
    assert doc["fold"] == [[2, "1"], [4, "1"], [6, "1"]]
    assert doc["element_text"] == "h~[2] + h~[4] + h~[6]"


def test_compute_tsv_format(capsys):
    code, out, _ = run(capsys, "compute", "--n", "1", "--i", "1", "--j", "0",
                       "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "part\tindex\tcoefficient"
    assert "element\t1\t1" in lines
    assert "fold\t1\t1" in lines


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "element.txt"
    code, out, _ = run(capsys, "compute", "--n", "1", "--i", "0", "--j", "0",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "h~[2] + h~[4] + h~[6]"


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "1", "--out", "{missing}/x.txt"),
    ("verify", "--suite", "shift", "--n", "1", "--out", "{missing}/v.txt"),
    ("certify", "--n", "1", "--out", "{file}"),
])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    paths = {"missing": tmp_path / "missing" / "dir", "file": existing}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("chebcone: ") and err.count("\n") == 1
    assert existing.read_text() == "kept\n"
    assert not (tmp_path / "missing").exists()


DEPTH_BOUND_ERROR = (
    f"chebcone: error: --n must be <= {MAX_DEPTH}: deeper coefficients pass the "
    "4,300-digit int-to-str limit of decimal output\n"
)


def usage_error(capsys, *argv):
    """The stdout and stderr of a run that must end in a usage error."""
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    out = capsys.readouterr()
    return out.out, out.err


@pytest.fixture
def no_depth_built(monkeypatch):
    """Every route to a family element raises, so a run that builds one fails."""
    def refuse(*args):
        raise RuntimeError("a depth was built")

    for name in ("closed_witnesses", "e0_raw", "e1_raw"):
        monkeypatch.setattr(recurrence_engine, name, refuse)
    monkeypatch.setattr(certifier, "closed_witnesses", refuse)


@pytest.mark.parametrize("argv", [
    ("stats", "--n", "5000"),
    ("certify", "--n", "9", "--out", "{out}"),
    ("verify", "--n", "9"),
    ("compute", "--n", "9"),
    ("compute", "--n", "5000", "--mode", "closed"),
])
def test_depth_above_the_bound_is_refused_before_any_work(argv, no_depth_built, tmp_path, capsys):
    out_dir = tmp_path / "certs"
    out, err = usage_error(capsys, *(a.format(out=out_dir) for a in argv))
    assert out == ""
    assert err.endswith(DEPTH_BOUND_ERROR)
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "1"),
    ("verify", "--suite", "shift", "--n", "1"),
    ("certify", "--n", "1"),
    ("stats", "--n", "1"),
])
def test_empty_out_is_refused_before_any_work(argv, no_depth_built, monkeypatch, tmp_path, capsys):
    # certify once wrote to its default directory instead, and the others
    # failed on the directory "." only after all their work
    monkeypatch.chdir(tmp_path)
    out, err = usage_error(capsys, *argv, "--out", "")
    assert out == ""
    assert err.endswith("chebcone: error: --out must not be empty\n")
    assert list(tmp_path.iterdir()) == []


def test_certify_takes_no_format(no_depth_built, monkeypatch, tmp_path, capsys):
    # certificate documents are JSON only, so certify has no --format
    monkeypatch.chdir(tmp_path)
    out, err = usage_error(capsys, "certify", "--n", "1", "--format", "json")
    assert out == ""
    assert "unrecognized arguments: --format json" in err
    assert list(tmp_path.iterdir()) == []


def test_stats_accepts_the_depth_bound(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "growth_stats", lambda n: built.append(n) or [])
    code, out, _ = run(capsys, "stats", "--n", str(MAX_DEPTH))
    assert code == 0
    assert built == list(range(MAX_DEPTH + 1))
    assert out.startswith("n  j  support")


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "w-theorem", "--trials", "50",
                       "--seed", "3")
    assert code == 0
    assert "[PASS] w-theorem/shift-identity" in out
    assert "0 failed" in out


def test_verify_shift_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "shift", "--n", "2")
    assert code == 0
    assert "[PASS] shift/leading-slot1(n=2)" in out


def test_verify_is_deterministic(capsys):
    args = ("verify", "--suite", "cross,w-theorem", "--trials", "40", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cone", "--n", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["failed"] == 0
    assert {c["suite"] for c in doc["checks"]} == {"cone"}


def test_verify_tsv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "shift", "--n", "1",
                       "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "suite\tcheck\tstatus\tdetail"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("selection", [",", "", " , ,"])
def test_verify_selection_naming_no_suite_is_usage_error(capsys, selection):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", selection])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names no suite" in captured.err


@pytest.mark.parametrize("selection", ["lemmas,lemmas", "cone, shift,cone", "oracle,,oracle "])
def test_verify_suite_named_twice_is_usage_error(capsys, selection):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", selection])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--suite {selection!r} names a suite more than once" in captured.err


def test_negative_depth_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", "--n", "-3"])
    assert err.value.code == 2


def test_invalid_slot_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", "--n", "1", "--i", "7"])
    assert err.value.code == 2


def test_certify_writes_expected_files(tmp_path, capsys):
    outdir = tmp_path / "certs"
    code, out, _ = run(capsys, "certify", "--n", "3", "--out", str(outdir))
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert len(files) == 32  # 24 positivity + 8 cone
    assert sum(1 for f in files if f.startswith("cone_")) == 8
    assert sum(1 for f in files if f.startswith("positivity_")) == 24
    assert "all valid" in out

    doc = json.loads((outdir / "cone_n1_j0.json").read_text())
    assert doc["kind"] == "cone"
    assert doc["center"] == 4
    assert doc["radii"] == [[2, "1"]]

    doc = json.loads((outdir / "positivity_n1_i0_j0.json").read_text())
    assert doc["all_nonnegative"] is True
    assert doc["coefficients"] == [[2, "1"], [4, "1"], [6, "1"]]


def test_certify_depth_zero_vacuous(tmp_path, capsys):
    outdir = tmp_path / "certs0"
    code, out, _ = run(capsys, "certify", "--n", "0", "--out", str(outdir))
    assert code == 0
    assert len(list(outdir.iterdir())) == 8
    doc = json.loads((outdir / "positivity_n0_i0_j1.json").read_text())
    assert doc["coefficients"] == []
    assert doc["all_nonnegative"] is True


def test_certify_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(capsys, "certify", "--n", "2", "--out", str(d1))
    run(capsys, "certify", "--n", "2", "--out", str(d2))
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


def test_stats_tsv(capsys):
    code, out, _ = run(capsys, "stats", "--n", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tj\tsupport\tmin_index\tmax_index\tmass"
    assert lines[1] == "0\t0\t1\t2\t2\t1"
    assert any(line.startswith("2\t0\t") for line in lines)


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {(r["n"], r["j"]): r for r in doc["rows"]}
    assert rows[(1, 0)]["max_index"] == 6
    assert rows[(0, 1)]["mass"] == "0"


def test_stats_text_output_is_unchanged(capsys):
    # tests/test_golden.py pins the tsv rows; this pins the text rows, whose
    # separator is two spaces and whose empty slot-1 row leaves blank columns
    code, out, _ = run(capsys, "stats", "--n", "4")
    assert code == 0
    assert out.splitlines()[2] == "0  1  0      0"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e76214a6a7b0798b12d798e8c47e9c9f51291fc04cc5bc8735e15de37eaf2652"
    )


def test_verify_depth_leaves_the_lemma_sweep_at_its_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--n", "4")
    assert code == 0
    assert "[PASS] lemmas/pair-sum: A,B in [-8,8], 289 cases" in out
    assert "[PASS] lemmas/triple-sum: A1,A2,B in [-6,6], 2197 cases" in out
    assert out.endswith("(suites=lemmas; n=4; trials=auto; seed=0)\n")


def refuse_raw_route(mp: pytest.MonkeyPatch) -> None:
    """Make every build of a raw recurrence element fail loudly."""
    def refuse(*args):
        raise RuntimeError("the raw recurrence ran")

    mp.setattr(recurrence_engine, "e0_raw", refuse)
    mp.setattr(recurrence_engine, "e1_raw", refuse)


@pytest.fixture
def no_raw_route(monkeypatch):
    refuse_raw_route(monkeypatch)


def test_raw_route_is_refused_under_the_fixture(no_raw_route):
    with pytest.raises(RuntimeError, match="raw recurrence"):
        main(["compute", "--n", "1", "--mode", "raw"])


def test_certify_and_stats_never_run_the_raw_recurrence(no_raw_route, tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "--n", "3", "--out", str(tmp_path / "certs"))
    assert code == 0 and out.endswith("all valid\n")
    assert len(list((tmp_path / "certs").iterdir())) == 32
    code, out, _ = run(capsys, "stats", "--n", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[1:3] == ["0\t0\t1\t2\t2\t1", "0\t1\t0\t\t\t0"]


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_closed_compute_never_runs_the_raw_recurrence(fmt, monkeypatch, capsys):
    argv = ["compute", "--n", "3", "--i", "-1", "--j", "1", "--format", fmt]
    code, raw_out, _ = run(capsys, *argv, "--mode", "raw")
    assert code == 0
    with monkeypatch.context() as mp:
        refuse_raw_route(mp)
        code, closed_out, _ = run(capsys, *argv, "--mode", "closed")
    assert code == 0
    assert closed_out == raw_out.replace('"mode": "raw"', '"mode": "closed"')


def shift_cone_center(mp: pytest.MonkeyPatch) -> None:
    """Move the cone of (n, j) = (1, 0) one up: {2, 4, 6} is not in R(5)."""
    real = certifier.cone_center
    mp.setattr(certifier, "cone_center", lambda n, j: real(n, j) + ((n, j) == (1, 0)))


def break_ladder(mp: pytest.MonkeyPatch, delta) -> None:
    """Add delta(lead) to the ladder's penultimate slot -1, which closed_element
    and the shift suite both read."""
    real = recurrence_engine.shift_ladder

    def ladder(pair, i, j):
        g = real(pair, i, j)
        return g + delta(pair[0]) if (i, j) == (-1, 1) else g

    mp.setattr(recurrence_engine, "shift_ladder", ladder)


SHIFT_FAILURES = {f"shift/penultimate-slot-1(n={n})" for n in range(4)}
FAULTS = {
    # the lead shifted by -1 instead of -2: every listing stays non-negative
    "ladder-1": (lambda mp: break_ladder(mp, lambda lead: lead.shift(-1) - lead.shift(-2)),
                 SHIFT_FAILURES),
    # the lead subtracted: only the depth-0 listing, -h[0], turns negative
    "ladder-sign": (lambda mp: break_ladder(mp, lambda lead: -2 * lead.shift(-2)),
                    SHIFT_FAILURES | {"positivity/nonnegative(n=0,i=-1,j=1)",
                                      "positivity/cone-implication(n=0,j=1)"}),
    "cone-center": (shift_cone_center,
                    {"cone/membership(n=1,j=0)", "positivity/cone-implication(n=1,j=0)"}),
}


def verdicts(report):
    """The (check, PASS or FAIL) pairs of a text report, in order."""
    return [(line[7:].split(":")[0], line[1:5]) for line in report.splitlines()[:-1]]


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_reports_an_injected_fault_as_failed_checks(fault, monkeypatch, capsys):
    code, passing, _ = run(capsys, "verify")
    assert code == 0
    inject, expected = FAULTS[fault]
    inject(monkeypatch)
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    assert verdicts(out) == [(name, "FAIL" if name in expected else "PASS")
                             for name, _ in verdicts(passing)]
    total = len(verdicts(out))
    assert out.splitlines()[-1] == (
        f"verify: {total} checks, {total - len(expected)} passed, {len(expected)} failed "
        f"(suites={','.join(cli.SUITE_NAMES)}; n=auto; trials=auto; seed=0)"
    )


def test_certify_reports_a_witness_outside_its_cone_and_goes_on(monkeypatch, tmp_path, capsys):
    shift_cone_center(monkeypatch)
    outdir = tmp_path / "certs"
    code, out, err = run(capsys, "certify", "--n", "2", "--out", str(outdir))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "INVALID cone n=1 j=0 center=5 offset=3: mult(2)=1 > mult(8)=0" in lines
    assert lines[-1] == f"certify: wrote 23 certificates to {outdir}, INVALID CERTIFICATES PRESENT"
    files = {p.name for p in outdir.iterdir()}
    assert len(files) == 23 and "cone_n1_j0.json" not in files
    assert {f"positivity_n1_i{i}_j0.json" for i in (-1, 0, 1)} <= files
    assert {"cone_n1_j1.json", "cone_n2_j0.json", "cone_n2_j1.json"} <= files


@pytest.fixture
def broken_core_step(monkeypatch):
    """Shift each new penultimate core by -8: the depth-1 witnesses still
    build, but the core C_1 folds to a negative weight, so depth 2 has no
    witness pair."""
    real = recurrence_engine.factored_witnesses
    caches = (real, recurrence_engine._cofactor, recurrence_engine.closed_witnesses)

    def step(n):
        v, core = real(n)
        return v, core.shift(-8)

    monkeypatch.setattr(recurrence_engine, "factored_witnesses", step)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


CLOSED_ROUTE_FAULT = "negative folded weight -1 at h[1]: not a multiset"


def test_verify_reports_a_closed_route_fault_as_one_check_per_suite(broken_core_step, capsys):
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("[PASS] ")][:-1] == [
        f"[FAIL] {suite}/fault: {CLOSED_ROUTE_FAULT}"
        for suite in ("multiset", "cone", "positivity", "oracle")
    ]
    assert lines[-1] == (f"verify: 30 checks, 26 passed, 4 failed "
                         f"(suites={','.join(cli.SUITE_NAMES)}; n=auto; trials=auto; seed=0)")


def test_certify_stops_at_a_depth_it_cannot_build(broken_core_step, tmp_path, capsys):
    outdir = tmp_path / "certs"
    code, out, err = run(capsys, "certify", "--n", "3", "--out", str(outdir))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-2:] == [
        f"INVALID closed route n=2: {CLOSED_ROUTE_FAULT}",
        f"certify: wrote 15 certificates to {outdir}, INVALID CERTIFICATES PRESENT",
    ]
    assert not any(" n=2 " in line or " n=3 " in line for line in lines)
    assert len(list(outdir.iterdir())) == 15


@pytest.mark.parametrize("argv", [("compute", "--n", "3", "--mode", "closed"),
                                  ("stats", "--n", "3")])
def test_compute_and_stats_report_a_closed_route_fault_in_one_line(argv, broken_core_step,
                                                                   capsys):
    assert run(capsys, *argv) == (1, "", f"chebcone: {CLOSED_ROUTE_FAULT}\n")


def test_verify_reports_a_generator_fault_as_a_failed_check(monkeypatch, capsys):
    # a member of R(c - 1) but not of R(c), which the generator promises
    monkeypatch.setattr(suites, "random_cone_member",
                        lambda rng, c: multiset_cone.IntegerMultiset([c - 1]))
    code, out, err = run(capsys, "verify", "--suite", "multiset")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("[FAIL] multiset/fault: not in cone R(")
    assert lines[1].startswith("verify: 1 checks, 0 passed, 1 failed (suites=multiset;")
