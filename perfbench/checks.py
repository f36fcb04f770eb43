"""Correctness gates applied to every benchmark process.

Each workload's gate is called as gate(stdout, outdir, expected, items)
and returns a list of problems; an empty list means the process passed.
Output bytes are compared with SHA-256 digests recorded from the
reference commit (expected.json); run.py also compares the digest of
standard output, after normalize_seed.  Certificate documents are also
re-checked from their own contents, without trusting the verdict flags
the certifier wrote into them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SEED_TOKEN = "<SEED>"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalize_seed(text: str, seed: int) -> str:
    """Replace the seed in verify's summary line, the only seed-dependent byte.

    Output that does not end with that line is returned unchanged.
    """
    suffix = f"; seed={seed})\n"
    if not text.endswith(suffix):
        return text
    return text[: -len(suffix)] + f"; seed={SEED_TOKEN})\n"


def check_verify(stdout: str, outdir: Path, expected: dict, checks: int) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith("[PASS] "))
    if passed != checks:
        problems.append(f"{passed} PASS lines, expected {checks}")
    if any(line.startswith("[FAIL]") for line in lines):
        problems.append("FAIL verdict in verify output")
    return problems


def check_positivity_document(doc: dict) -> list[str]:
    """Recompute the verdict, mass and max index from the coefficient listing."""
    where = f"positivity n={doc.get('n')} i={doc.get('i')} j={doc.get('j')}"
    coeffs = [(idx, int(c)) for idx, c in doc["coefficients"]]
    indices = [idx for idx, _ in coeffs]
    problems = []
    if indices != sorted(set(indices)) or any(idx < 0 for idx in indices):
        problems.append(f"{where}: indices not strictly increasing and non-negative")
    if any(c == 0 for _, c in coeffs):
        problems.append(f"{where}: zero coefficient listed")
    nonnegative = all(c >= 0 for _, c in coeffs)
    if doc["all_nonnegative"] is not nonnegative:
        problems.append(f"{where}: all_nonnegative flag disagrees with the listing")
    if not nonnegative:
        problems.append(f"{where}: negative coefficient")
    if doc["mass"] != str(sum(c for _, c in coeffs)):
        problems.append(f"{where}: mass disagrees with the listing")
    if doc["max_index"] != (max(indices) if indices else None):
        problems.append(f"{where}: max_index disagrees with the listing")
    return problems


def check_cone_document(doc: dict) -> list[str]:
    """Check the part constraints and, for j = 0, the max-index law 2*3^n."""
    n, j, center = doc["n"], doc["j"], doc["center"]
    where = f"cone n={n} j={j}"
    singletons = [(v, int(c)) for v, c in doc["singletons"]]
    radii = [(r, int(c)) for r, c in doc["radii"]]
    problems = []
    if center != 2 ** (n + 1) - j:
        problems.append(f"{where}: center {center}, expected {2 ** (n + 1) - j}")
    values = [v for v, _ in singletons]
    if values != sorted(set(values)) or any(v < center for v in values):
        problems.append(f"{where}: singleton values not increasing and at or above the center")
    sizes = [r for r, _ in radii]
    if sizes != sorted(set(sizes)) or any(r < 1 for r in sizes):
        problems.append(f"{where}: radii not increasing and at least 1")
    if any(c <= 0 for _, c in singletons + radii):
        problems.append(f"{where}: non-positive part count")
    if doc["recomposition_ok"] is not True:
        problems.append(f"{where}: recomposition_ok is not true")
    if j == 0:
        # every count is positive, so the recomposed multiset reaches the
        # largest singleton and the right end of the widest interval
        top = max(values + [center + r for r in sizes], default=None)
        if top != 2 * 3**n:
            problems.append(f"{where}: recomposed max index {top}, expected {2 * 3**n}")
    return problems


def check_certificates(stdout: str, outdir: Path, expected: dict, documents: int) -> list[str]:
    """Digest and re-check every document written to outdir."""
    problems = []
    files = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
    if len(files) != documents or files != sorted(expected["files"]):
        problems.append(f"{len(files)} certificate files, expected {documents}")
    for name in files:
        data = (outdir / name).read_bytes()
        if sha256(data) != expected["files"].get(name):
            problems.append(f"{name}: digest mismatch")
        try:
            doc = json.loads(data)
        except ValueError as exc:
            problems.append(f"{name}: not JSON ({exc})")
            continue
        if doc.get("kind") == "positivity":
            problems.extend(check_positivity_document(doc))
        elif doc.get("kind") == "cone":
            problems.extend(check_cone_document(doc))
        else:
            problems.append(f"{name}: unknown kind {doc.get('kind')!r}")
    return problems


def check_certify(stdout: str, outdir: Path, expected: dict, documents: int) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    if sum(1 for line in lines if line.startswith("ok ")) != documents:
        problems.append(f"expected {documents} ok lines in certify output")
    if "INVALID" in stdout:
        problems.append("INVALID verdict in certify output")
    return problems + check_certificates(stdout, outdir, expected, documents)
