"""Golden-output tests: SHA-256 digests of whole CLI outputs.

Any change to the bytes the CLI writes makes one of them fail.  Each
digest was recorded before a change that had to keep it:

* seeds 0 and 7, `compute --n 2`, `stats --n 4` and `certify --n 3`,
  before the product-identity sweep and the single-pass `evaluate`;
* `certify --n 6`, the shallowest run that packs products in fields
  wider than 64 bits, before the byte-field packer joined that route;
* `certify --n 7`, the first depth whose closed step takes seconds,
  before the leading kernel was read off the witness's palindrome;
* `verify --n 6`, which checks the literal extra term of the slot -1
  leading recurrence through depth 5, `stats --n 6` and `compute --n 3`,
  before that term lost its own cache and `w1` its product by h~[1].

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


COMMAND_DIGESTS = {
    ("compute", "--n", "2", "--i", "-1", "--j", "1", "--mode", "both"):
        "1ad1db695b3a3705ac967f62bafc44e31807cc97bdc5ce01c415b1ebbb509117",
    ("compute", "--n", "3", "--i", "-1", "--j", "1", "--mode", "both", "--format", "json"):
        "f2b18b0c7c77db4b66c23adfa2ec519e71af3bd5d3c777a5ed50b4cb2dbcb20a",
    ("stats", "--n", "4", "--format", "tsv"):
        "4cf10940356e5d8316dea8085acec546618918331a47d9360906fef7c5464083",
    ("stats", "--n", "6", "--format", "json"):
        "43be4bb12db97c613b6ce739daeaf868320a393c09a9a0517a039a9cf66868ab",
    ("verify", "--n", "6"):
        "49d331486005c482952451faf776bd96ec862543cca8bc5fb1ca389e8c098efd",
}


@pytest.mark.parametrize("argv", sorted(COMMAND_DIGESTS), ids=" ".join)
def test_command_output_is_unchanged(capsys, argv):
    assert run(capsys, *argv) == (0, COMMAND_DIGESTS[argv])


# depth: (stdout, file count, listing)
CERTIFY_DIGESTS = {
    3: ("a9d7e857a635bad8e2c3f84123ad16556822c59979bcdd7941cc4df22c5c5df1", 32,
        "bb60b424fbed1ee7cf8be9a2a0b61360b6194f49ae6ef82b6cc3c918662c9626"),
    6: ("c7bf475bae77fa887bb0d3973a9377d16f870c4949903669a1c7cf1d8d4b3e32", 56,
        "8c643c9a324f8a3623d8fb34d83a595d38aac8929be230831bf3e9da28824dfa"),
    7: ("b2a3487497745c5b00c3c5c7d5fce15a25bf88b9c5144761d5ec4b61edd8e4b5", 64,
        "c48d1e000f3de4e9bb1670a91ec5ddaa292314904bd1f9281a5c9702c81dda36"),
}


@pytest.mark.parametrize("depth", sorted(CERTIFY_DIGESTS))
def test_certify_tree_is_unchanged(capsys, tmp_path, monkeypatch, depth):
    stdout, count, listing = CERTIFY_DIGESTS[depth]
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "certify", "--n", str(depth), "--out", "certs") == (0, stdout)
    files = sorted(Path("certs").iterdir())
    assert len(files) == count
    lines = "".join(f"{p.name}\t{_sha(p.read_bytes())}\n" for p in files)
    assert _sha(lines.encode("utf-8")) == listing
