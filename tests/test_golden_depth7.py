"""Golden digest of `certify --n 7`, the first depth whose closed step
takes seconds.

Every step of the closed route is a handful of multiset sums and unions,
and from depth 7 on those sums are large packed products with fields far
wider than 64 bits.  The digests were recorded with the step that formed
the kernel of the leading witness and expanded three sumsets by it on the
full witnesses.  They pin the bytes across the later steps: first that
kernel read off the witness's palindrome, then the step on the small
cores, with the witnesses expanded by their shared cofactor.  Files are
digested one by one, then as a sorted listing of `name<TAB>sha256` lines,
as in `tests/test_golden.py`.
"""

import hashlib
from pathlib import Path

from chebcone.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_certify_depth_7_tree_is_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--n", "7", "--out", "certs"]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == (
        "b2a3487497745c5b00c3c5c7d5fce15a25bf88b9c5144761d5ec4b61edd8e4b5"
    )
    files = sorted(Path("certs").iterdir())
    assert len(files) == 64
    listing = "".join(f"{p.name}\t{_sha(p.read_bytes())}\n" for p in files)
    assert _sha(listing.encode("utf-8")) == (
        "c48d1e000f3de4e9bb1670a91ec5ddaa292314904bd1f9281a5c9702c81dda36"
    )
