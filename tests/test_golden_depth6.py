"""Golden digest of `certify --n 6`, the shallowest run whose products
reach the packed route with fields wider than 64 bits.

`tests/test_golden.py` stops at depth 3, where every product of the
closed route is small.  `certify --n 6` packs 20 products, 13 of them in
fields wider than 64 bits, all at exponent step 2, so this digest pins
the output bytes of that route.  The digests were recorded before the
byte-field packer was folded into the one packed route.  Files are
digested one by one, then as a sorted listing of `name<TAB>sha256`
lines, as in `tests/test_golden.py`.
"""

import hashlib
from pathlib import Path

from chebcone.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_certify_depth_6_tree_is_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--n", "6", "--out", "certs"]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == (
        "c7bf475bae77fa887bb0d3973a9377d16f870c4949903669a1c7cf1d8d4b3e32"
    )
    files = sorted(Path("certs").iterdir())
    assert len(files) == 56
    listing = "".join(f"{p.name}\t{_sha(p.read_bytes())}\n" for p in files)
    assert _sha(listing.encode("utf-8")) == (
        "8c643c9a324f8a3623d8fb34d83a595d38aac8929be230831bf3e9da28824dfa"
    )
