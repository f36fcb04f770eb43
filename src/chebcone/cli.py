"""Command line front end: compute family elements, run verification
suites, emit certificate files and growth tables.

compute, verify and stats each build their JSON document, TSV rows and
text once, and _emit writes the one --format asks for.  Exit codes are
exactly 0 for success, 1 for a failed assertion, an invalid certificate
or a fault met while working (a <suite>/fault check in verify, INVALID
closed route in certify, one stderr line in compute and stats), and 2
for a usage error, an empty --out included, or an --out that cannot be
written.
Every command refuses an --n above MAX_DEPTH before it builds
anything: depth 9 coefficients reach ~5,900 digits, past the 4,300-digit
int-to-str limit of decimal output.
All randomized work is driven by the --seed flag, and identical
(command, seed, n) invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certifier import (
    certify_cone,
    certify_positivity,
    check_positivity_implication,
    document_json,
    encode_listing,
)
from .multiset_cone import ConeMembershipError
from .recurrence_engine import VALID_I, VALID_J, closed_element, growth_stats, raw_element
from .tilde_ring import fold_L

MAX_DEPTH = 8
FORMATS = ("text", "json", "tsv")
MODES = ("raw", "closed", "both")
# the suites module is imported by `verify` alone, so its names live here
SUITE_NAMES = ("lemmas", "w-theorem", "multiset", "cone", "shift", "positivity",
               "cross", "oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebcone",
        description="exact kernel for the shift-basis module algebra: "
        "compute coefficient families, verify their identities, emit certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one family element and its fold")
    p_compute.add_argument("--n", type=int, required=True, help=f"depth, 0 to {MAX_DEPTH}")
    p_compute.add_argument("--i", type=int, choices=VALID_I, default=0, help="slot index")
    p_compute.add_argument("--j", type=int, choices=VALID_J, default=0,
                           help="0 = leading, 1 = penultimate leading")
    p_compute.add_argument("--mode", choices=MODES, default="raw")
    p_compute.add_argument("--format", choices=FORMATS, default="text")
    p_compute.add_argument("--out", default=None, help="write output to this file")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help="comma separated subset of: " + ",".join(SUITE_NAMES))
    p_verify.add_argument("--n", type=int, default=None,
                          help="depth for the recurrence suites (default 3)")
    p_verify.add_argument("--trials", type=int, default=None,
                          help="random trials (defaults: 200, cross 500)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=FORMATS, default="text")
    p_verify.add_argument("--out", default=None)

    p_certify = sub.add_parser("certify", help="write certificate documents")
    p_certify.add_argument("--n", type=int, default=3, help=f"maximum depth, 0 to {MAX_DEPTH}")
    p_certify.add_argument("--out", default="certificates",
                           help="output directory (default: certificates)")

    p_stats = sub.add_parser("stats", help="growth table for the family elements")
    p_stats.add_argument("--n", type=int, default=3, help=f"maximum depth, 0 to {MAX_DEPTH}")
    p_stats.add_argument("--format", choices=FORMATS, default="text")
    p_stats.add_argument("--out", default=None)

    return parser


def _table(rows: list[tuple], sep: str) -> str:
    """The rows, one line each with cells joined by sep; None is an empty cell."""
    return "".join(sep.join("" if v is None else str(v) for v in row) + "\n" for row in rows)


def _emit(cfg: argparse.Namespace, doc: dict, rows: list[tuple], text: str) -> None:
    """Write a command's output in --format to --out, or to stdout: the
    JSON document, the tab-separated rows (header first) or the text."""
    if cfg.format == "json":
        text = json.dumps(doc, indent=1) + "\n"
    elif cfg.format == "tsv":
        text = _table(rows, "\t")
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text, encoding="utf-8")


def cmd_compute(cfg: argparse.Namespace) -> int:
    if cfg.mode == "raw":
        g = raw_element(cfg.n, cfg.i, cfg.j)
    else:
        g = closed_element(cfg.n, cfg.i, cfg.j)
        if cfg.mode == "both" and raw_element(cfg.n, cfg.i, cfg.j) != g:
            sys.stderr.write(
                f"compute: raw and closed elements disagree at "
                f"(n={cfg.n}, i={cfg.i}, j={cfg.j})\n"
            )
            return 1
    folded = fold_L(g)
    g_text, fold_text = str(g), str(folded)
    element, fold = encode_listing(g.terms()), encode_listing(folded.terms())
    doc = {
        "command": "compute",
        "n": cfg.n,
        "i": cfg.i,
        "j": cfg.j,
        "mode": cfg.mode,
        "element": element,
        "element_text": g_text,
        "fold": fold,
        "fold_text": fold_text,
    }
    rows = [("part", "index", "coefficient")]
    rows += [("element", idx, c) for idx, c in element]
    rows += [("fold", idx, c) for idx, c in fold]
    _emit(cfg, doc, rows, f"{g_text}\nfold: {fold_text}\n")
    return 0


def cmd_verify(cfg: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if cfg.trials is not None and cfg.trials <= 0:
        parser.error("--trials must be positive")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if cfg.suite == "all":
        names = list(SUITE_NAMES)
    else:
        names = [s.strip() for s in cfg.suite.split(",") if s.strip()]
    if not names:
        parser.error(f"--suite {cfg.suite!r} names no suite")
    unknown = [s for s in names if s not in SUITE_NAMES]
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    if len(set(names)) < len(names):
        parser.error(f"--suite {cfg.suite!r} names a suite more than once")
    from . import suites as suite_lib

    pairs = suite_lib.run_suites(names, cfg.n, cfg.trials, cfg.seed)
    checks = [(suite, r, "PASS" if r.passed else "FAIL")
              for suite, results in pairs for r in results]
    failed = sum(not r.passed for _, r, _ in checks)
    doc = {
        "command": "verify",
        "suites": names,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "checks": [
            {"suite": s, "name": r.name, "passed": r.passed, "detail": r.detail}
            for s, r, _ in checks
        ],
        "total": len(checks),
        "failed": failed,
        "all_passed": not failed,
    }
    rows = [("suite", "check", "status", "detail")]
    rows += [(s, r.name, status, r.detail) for s, r, status in checks]
    lines = [f"[{status}] {r.name}" + (f": {r.detail}" if r.detail else "")
             for _, r, status in checks]
    n_label = "auto" if cfg.n is None else cfg.n
    trials_label = "auto" if cfg.trials is None else cfg.trials
    lines.append(
        f"verify: {len(checks)} checks, {len(checks) - failed} passed, "
        f"{failed} failed (suites={','.join(names)}; "
        f"n={n_label}; trials={trials_label}; seed={cfg.seed})"
    )
    _emit(cfg, doc, rows, "\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_certify(cfg: argparse.Namespace) -> int:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    all_valid = True
    written = 0
    try:
        for n in range(cfg.n + 1):
            for j in VALID_J:
                pos_certs = [certify_positivity(n, i, j) for i in VALID_I]
                cone_cert = certify_cone(n, j)
                all_valid = all_valid and check_positivity_implication(cone_cert, pos_certs)
                if isinstance(cone_cert, ConeMembershipError):
                    lines.append(f"INVALID cone n={n} j={j} center={cone_cert.center} "
                                 f"offset={cone_cert.offset}: {cone_cert.detail}")
                else:
                    path = outdir / f"cone_n{n}_j{j}.json"
                    path.write_text(document_json(cone_cert.to_document()), encoding="utf-8")
                    written += 1
                    lines.append(
                        f"{'ok' if cone_cert.recomposition_ok else 'INVALID'} cone n={n} j={j} "
                        f"center={cone_cert.center} file={path.name}"
                    )
                for pc in pos_certs:
                    path = outdir / f"positivity_n{n}_i{pc.i}_j{j}.json"
                    path.write_text(document_json(pc.to_document()), encoding="utf-8")
                    written += 1
                    lines.append(
                        f"{'ok' if pc.all_nonnegative else 'INVALID'} positivity "
                        f"n={n} i={pc.i} j={j} cone_bound={pc.cone_bound} file={path.name}"
                    )
    except ValueError as exc:  # each depth above n is built from n
        all_valid = False
        lines.append(f"INVALID closed route n={n}: {exc}")
    lines.append(
        f"certify: wrote {written} certificates to {outdir}, "
        f"{'all valid' if all_valid else 'INVALID CERTIFICATES PRESENT'}"
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_valid else 1


def cmd_stats(cfg: argparse.Namespace) -> int:
    stats = [r for n in range(cfg.n + 1) for r in growth_stats(n)]
    # the fields of a GrowthRow are the columns, in order, and the keys of
    # a JSON row, whose mass is a decimal string
    header = ("n", "j", "support", "min_index", "max_index", "mass")
    doc = {"command": "stats", "n": cfg.n,
           "rows": [dict(zip(header, (*r[:-1], str(r.mass)))) for r in stats]}
    rows = [header, *stats]
    _emit(cfg, doc, rows, _table(rows, "  "))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.n is not None and cfg.n < 0:
        parser.error("--n must be >= 0")
    if cfg.n is not None and cfg.n > MAX_DEPTH:
        parser.error(f"--n must be <= {MAX_DEPTH}: deeper coefficients pass the 4,300-digit "
                     "int-to-str limit of decimal output")
    if cfg.out == "":
        parser.error("--out must not be empty")
    try:
        if cfg.command == "compute":
            return cmd_compute(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg, parser)
        if cfg.command == "certify":
            return cmd_certify(cfg)
        return cmd_stats(cfg)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"chebcone: {exc}\n")
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
