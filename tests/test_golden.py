"""Golden-output tests: SHA-256 digests of whole CLI outputs.

The digests were recorded before the product-identity sweep replaced
the two hand-written identity loops and `evaluate` became a single
pass; any change to the bytes the CLI writes makes one of them fail.
Certificate files are digested one by one, then as a sorted listing of
`name<TAB>sha256` lines.
"""

import hashlib
from pathlib import Path

import pytest

from chebcone import suites
from chebcone.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    return code, _sha(capsys.readouterr().out.encode("utf-8"))


VERIFY_DIGESTS = {
    ("0", "text"): "32b4bf11ba0a066789cc2233b923fd1929f98ff7866a9facb16bcc9df3a412ae",
    ("0", "json"): "11f3eb8c94c272b7ba1d6174679470295785556d3985276088527d1e758292f7",
    ("0", "tsv"): "b0ffbf2b486fc8545fad49bfd97691fe90c14bc734728e72e712261636c41fc1",
    ("7", "text"): "12b5137788408465a3f90522b9906f9a6ab115a858796cf4da565b080be48f3e",
    ("7", "json"): "fddd95de52cbf99e5ce3a400cc9f8438c9f5bd42e98c0ecdc2afe7690e083fac",
    ("7", "tsv"): "b0ffbf2b486fc8545fad49bfd97691fe90c14bc734728e72e712261636c41fc1",
}


@pytest.fixture(scope="module")
def one_suite_run_per_seed():
    """The three formats of one seed render the same suite run, so it is
    computed once; the rendering still goes through the CLI."""
    runs = {}
    real = suites.run_suites

    def shared(*args):
        key = repr(args)
        if key not in runs:
            runs[key] = real(*args)
        return runs[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "run_suites", shared)
        yield


@pytest.mark.parametrize("seed,fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_is_unchanged(capsys, one_suite_run_per_seed, seed, fmt):
    assert run(capsys, "verify", "--seed", seed, "--format", fmt) == (
        0,
        VERIFY_DIGESTS[(seed, fmt)],
    )


def test_compute_output_is_unchanged(capsys):
    assert run(capsys, "compute", "--n", "2", "--i", "-1", "--j", "1", "--mode", "both") == (
        0,
        "1ad1db695b3a3705ac967f62bafc44e31807cc97bdc5ce01c415b1ebbb509117",
    )


def test_stats_output_is_unchanged(capsys):
    assert run(capsys, "stats", "--n", "4", "--format", "tsv") == (
        0,
        "4cf10940356e5d8316dea8085acec546618918331a47d9360906fef7c5464083",
    )


def test_certify_tree_is_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "certify", "--n", "3", "--out", "certs") == (
        0,
        "a9d7e857a635bad8e2c3f84123ad16556822c59979bcdd7941cc4df22c5c5df1",
    )
    files = sorted(Path("certs").iterdir())
    assert len(files) == 32
    listing = "".join(f"{p.name}\t{_sha(p.read_bytes())}\n" for p in files)
    assert _sha(listing.encode("utf-8")) == (
        "bb60b424fbed1ee7cf8be9a2a0b61360b6194f49ae6ef82b6cc3c918662c9626"
    )
