"""Command-line driver: generate witnesses, compute invariants, audit bounds.

Exit codes: 0 success; 1 unusable input (flags, files, JSON, family
parameters); 2 a mathematical hypothesis of the requested computation fails;
3 internal numerical inconsistency; 4 an audited bound was violated.

All output is JSON with sorted keys, so identical inputs, seeds and
tolerance overrides produce byte-identical bytes.  Tolerance overrides use
``--tol.<name> <value>``; recognized names: ``gap`` (spectral-gap window of
the pairing) and ``unitarity`` (input validation for raw unitary pairs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .errors import (
    AuditViolation,
    NotUnitary,
    ObstructkitError,
    ParseError,
)
from .eta import (
    DEFAULT_RICHARDSON_ORDER,
    DEFAULT_T_LADDER,
    CharacterTwist,
    eta_character_abel,
    eta_character_closed,
    eta_result_to_json,
    rho_loop,
)
from .homology import (
    abelian_group_to_json,
    free_by_cyclic_h2,
    int_matrix,
    int_matrix_to_json,
    mapping_torus_surface_h2,
    obstruction_count,
    smith_normal_form,
)
from .matcore import matrix_from_json, matrix_to_json
from .projops import pairing, pairing_input, pairing_input_from_json
from .quasirep import (
    QuasiRep,
    clock_shift,
    commutation_defect,
    defect,
    defect_report_to_json,
    honest_commuting_rep,
    perturbed_honest_rep,
    quasirep_from_json,
    quasirep_to_json,
    require_honest,
    symmetrized_generators,
    unitary_pair_rep,
    voiculescu_pair,
)
from .seeding import derive_rng, haar_unitary
from .winding import winding_class, winding_pair, winding_report_to_json
from .words import (
    CommutatorDecomposition,
    commutator_decompose,
    exponent_sums,
    free_abelian_presentation,
    surface_presentation,
    word_from_text,
)

RECOGNIZED_TOLERANCES = ("gap", "unitarity")
_GEN_STREAM = 31


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _extract_tolerances(argv):
    """Split ``--tol.<name> <value>`` (or ``=value``) flags out of argv."""
    rest, tols = [], {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            if "=" in arg:
                name, _, raw = arg[len("--tol."):].partition("=")
            else:
                name = arg[len("--tol."):]
                i += 1
                if i >= len(argv):
                    _usage_fail(f"flag --tol.{name} needs a value")
                raw = argv[i]
            if name not in RECOGNIZED_TOLERANCES:
                _usage_fail(
                    f"unknown tolerance {name!r}; recognized: "
                    + ", ".join(RECOGNIZED_TOLERANCES)
                )
            try:
                value = float(raw)
            except ValueError:
                _usage_fail(f"tolerance --tol.{name} needs a number, got {raw!r}")
            # a NaN or infinite tolerance would switch its gate off, a negative
            # one would refuse every input
            if not 0.0 <= value < math.inf:
                _usage_fail(
                    f"tolerance --tol.{name} must be finite and non-negative, got {raw!r}"
                )
            tols[name] = value
        else:
            rest.append(arg)
        i += 1
    return rest, tols


def _usage_fail(message: str):
    sys.stderr.write(f"obstructkit: error: {message}\n")
    raise SystemExit(1)


@contextmanager
def _uncapped_int_text():
    """Lift the interpreter's 4300-digit cap on int-to-text for one block.

    ``json.dumps`` obeys the cap and exact results can pass it.  Only the
    command-line process flips the setting, around its own output, so input
    parsing keeps the cap and the library never touches it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.10.7
        yield
        return
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old_cap)


def _emit(payload, out_path):
    with _uncapped_int_text():
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_json(text: str, source: str):
    """Decode JSON; bad syntax, deep nesting or an over-long number: ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {source}: {exc}") from exc


def _load_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, path)


def _matrix_arg(text: str):
    return int_matrix(_parse_json(text, "--matrix"))


def _seed(value: int, source: str) -> int:
    if value < 0:
        raise ParseError(f"{source} must be a non-negative integer, got {value}")
    return value


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _honest_or_perturbed(pres, args):
    """Commuting honest representation, perturbed to defect below --eps if given."""
    rng = derive_rng(_seed(args.seed, "--seed"), _GEN_STREAM)
    if args.eps is None:
        return honest_commuting_rep(pres, args.dim, rng)
    return perturbed_honest_rep(pres, symmetrized_generators(pres), args.eps, args.dim, rng)


def _gen_surface_rep(args):
    pres = surface_presentation(args.genus, orientable=not args.non_orientable)
    if not args.non_orientable:
        return _honest_or_perturbed(pres, args)
    if args.eps is not None:
        raise ParseError(
            "perturbed non-orientable surface models are not provided; "
            "omit --eps for an exact one"
        )
    # Commuting involutions in a hidden common eigenbasis: each a_i^2 = 1
    # exactly, so the single defining relator evaluates to the identity.
    rng = derive_rng(_seed(args.seed, "--seed"), _GEN_STREAM)
    w = haar_unitary(args.dim, rng)
    images = []
    for _ in range(pres.num_generators):
        signs = np.where(rng.integers(0, 2, size=args.dim) == 0, 1.0, -1.0)
        images.append((w * signs) @ w.conj().T)
    require_honest(images, pres)
    return QuasiRep(pres, tuple(images), flavor="unitary")


def cmd_gen(args, tols) -> int:
    if args.family == "voiculescu":
        u, v = voiculescu_pair(args.delta, args.k)
        rep = unitary_pair_rep(u, v)
    elif args.family == "clock-shift":
        u, v = clock_shift(args.n)
        rep = unitary_pair_rep(u, v)
    elif args.family == "surface":
        rep = _gen_surface_rep(args)
    else:  # abelian
        rep = _honest_or_perturbed(free_abelian_presentation(args.rank), args)
    _emit(quasirep_to_json(rep), args.out)
    return 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _parse_pairs(spec: str, pres) -> CommutatorDecomposition:
    pairs = []
    for chunk in spec.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"--pairs wants 'a,b;c,d'-style word pairs; bad chunk {chunk!r}"
            )
        pairs.append(
            (word_from_text(parts[0].strip(), pres), word_from_text(parts[1].strip(), pres))
        )
    return CommutatorDecomposition.from_pairs(pairs)


def _default_decomposition(pres):
    for r in pres.relators:
        if not any(exponent_sums(r, pres.num_generators)):
            return commutator_decompose(r)
    return None


def cmd_invariants(args, tols) -> int:
    obj = _load_json(args.input)
    if isinstance(obj, dict) and "u" in obj and "v" in obj:
        u = matrix_from_json(obj["u"])
        v = matrix_from_json(obj["v"])
        report = winding_pair(u, v, unitarity_tol=tols.get("unitarity"))
        payload = {
            "input": "unitary-pair",
            "commutation_defect": commutation_defect(u, v),
            "winding": winding_report_to_json(report),
        }
        _emit(payload, args.out)
        return 0
    phi = quasirep_from_json(obj)
    S = symmetrized_generators(phi.presentation)
    payload = {
        "input": "quasirep",
        "flavor": phi.flavor,
        "defect": defect_report_to_json(defect(phi, S), phi.presentation),
    }
    decomp = (
        _parse_pairs(args.pairs, phi.presentation)
        if args.pairs
        else _default_decomposition(phi.presentation)
    )
    if phi.flavor != "unitary" and args.pairs:
        raise NotUnitary(
            "winding of a non-unitary quasi-representation is undefined; "
            "unitarize first"
        )
    if phi.flavor != "unitary":
        payload["winding"] = {"skipped": "flavor is not unitary; unitarize first"}
    elif decomp is None:
        payload["winding"] = {
            "skipped": "no relator with vanishing exponent sums; pass --pairs"
        }
    else:
        payload["winding"] = winding_report_to_json(winding_class(phi, decomp))
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(args, tols) -> int:
    if args.replay is not None:
        raw = args.replay
        obj = _load_json(raw[1:]) if raw.startswith("@") else _parse_json(raw, "--replay")
        try:
            suite = str(obj["suite"])
            seed = int(obj["master_seed"])
            trial = int(obj["trial"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(
                "--replay needs fields suite, master_seed, trial"
            ) from exc
        if suite not in audit_mod.SUITES:
            raise ParseError(f"unknown suite {suite!r} in replay data")
        _seed(seed, "replay master_seed")
        _seed(trial, "replay trial")
        payload = {"suite": suite, "master_seed": seed, "trial": trial}
        try:
            ratios = audit_mod.run_trial(suite, seed, trial)
            payload["ratios"] = ratios
            failed = any(r > 1.0 for r in ratios.values())
        except ObstructkitError as exc:
            payload["error"] = f"{type(exc).__name__}: {exc}"
            failed = True
        _emit(payload, args.out)
        if failed:
            raise AuditViolation("replayed instance fails its bound")
        return 0

    outcome = audit_mod.run_audit(_seed(args.seed, "--seed"), args.trials, args.suite or None)
    _emit(audit_mod.audit_outcome_to_json(outcome, include_timings=args.timings), args.out)
    if not outcome.all_passed:
        failing = [r.suite for r in outcome.suites if not r.passed]
        raise AuditViolation(
            "audit failed in: " + ", ".join(failing) + " (failures are in the report)"
        )
    return 0


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def cmd_eta(args, tols) -> int:
    if (args.q is None) == (args.phases is None):
        raise ParseError("give exactly one of --q or --phases")
    if args.phases is not None:
        try:
            phases = [float(x) for x in args.phases.split(",") if x.strip()]
        except ValueError as exc:
            raise ParseError(f"--phases must be comma-separated numbers: {exc}") from exc
        _emit({"phases": phases, "rho_loop": rho_loop(phases)}, args.out)
        return 0
    tw = CharacterTwist(args.q)
    if args.method == "closed":
        res = eta_character_closed(tw)
    else:
        if args.ladder:
            try:
                ladder = tuple(float(x) for x in args.ladder.split(",") if x.strip())
            except ValueError as exc:
                raise ParseError(f"--ladder must be comma-separated numbers: {exc}") from exc
        else:
            ladder = DEFAULT_T_LADDER
        res = eta_character_abel(tw, ladder, args.order)
    _emit(eta_result_to_json(res), args.out)
    return 0


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def cmd_homology(args, tols) -> int:
    if args.family == "fbc":
        group = free_by_cyclic_h2(_matrix_arg(args.matrix))
        payload = {
            "family": "fbc",
            "h2": abelian_group_to_json(group),
            "obstruction_count": group.free_rank,
        }
    elif args.family == "mapping-torus":
        group = mapping_torus_surface_h2(args.sign, _matrix_arg(args.matrix))
        payload = {
            "family": "mapping-torus",
            "sign": args.sign,
            "h2": abelian_group_to_json(group),
        }
    elif args.family == "surface":
        count = obstruction_count(
            "surface", genus=args.genus, orientable=not args.non_orientable
        )
        payload = {
            "family": "surface",
            "genus": args.genus,
            "orientable": not args.non_orientable,
            "obstruction_count": count,
        }
    elif args.family == "bs":
        count = obstruction_count("bs", n=args.n, m=args.m)
        payload = {"family": "bs", "n": args.n, "m": args.m, "obstruction_count": count}
        if abs(args.n) != abs(args.m) and 1 not in (abs(args.n), abs(args.m)):
            payload["caveat"] = (
                "groups with |n| != |m| (and neither equal to 1) are not "
                "residually finite; the count is well defined but "
                "finite-dimensional approximation guarantees are doubtful"
            )
    else:  # snf
        u, d, v = smith_normal_form(_matrix_arg(args.matrix))
        payload = {
            "U": int_matrix_to_json(u),
            "D": int_matrix_to_json(d),
            "V": int_matrix_to_json(v),
            "diagonal": list(d.diagonal()),
        }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def cmd_pairing(args, tols) -> int:
    inp = pairing_input_from_json(_load_json(args.input))
    if "gap" in tols:
        inp = pairing_input(inp.b, inp.q, inp.n_dim, inp.k_dim, tols["gap"])
    result = pairing(inp)
    payload = {
        "N": inp.n_dim,
        "k": inp.k_dim,
        "gap_tol": inp.gap_tol,
        "index": result.index,
        "rank": result.rank,
        "margin": result.margin,
    }
    if args.full:
        payload["projection"] = matrix_to_json(result.projection)
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="obstructkit",
        description="winding-number obstructions for almost-multiplicative matrix families",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="generate witness files")
    gen_sub = gen.add_subparsers(dest="family", required=True, metavar="family")
    v = gen_sub.add_parser("voiculescu", help="almost-commuting pair with chosen winding")
    v.add_argument("--delta", type=float, default=0.5, help="commutation defect bound")
    v.add_argument("--k", type=int, default=1, help="winding number of the pair")
    _add_output_flags(v)
    c = gen_sub.add_parser("clock-shift", help="the n-dimensional clock-and-shift pair")
    c.add_argument("--n", type=int, required=True)
    _add_output_flags(c)
    s = gen_sub.add_parser("surface", help="surface-group representation")
    s.add_argument("--genus", type=int, required=True)
    s.add_argument("--non-orientable", dest="non_orientable", action="store_true")
    s.add_argument("--eps", type=float, default=None, help="perturb to defect below eps")
    s.add_argument("--dim", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    _add_output_flags(s)
    ab = gen_sub.add_parser("abelian", help="free-abelian representation")
    ab.add_argument("--rank", type=int, default=2)
    ab.add_argument("--eps", type=float, default=None)
    ab.add_argument("--dim", type=int, default=8)
    ab.add_argument("--seed", type=int, default=0)
    _add_output_flags(ab)

    inv = sub.add_parser("invariants", help="winding and defect reports for a witness file")
    inv.add_argument("input", help="witness JSON path, or - for stdin")
    inv.add_argument(
        "--pairs",
        default=None,
        help="commutator decomposition as word pairs 'a,b;c,d' (default: from a relator)",
    )
    _add_output_flags(inv)

    aud = sub.add_parser("audit", help="run randomized bound-audit suites")
    aud.add_argument("--trials", type=int, default=1000)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument(
        "--suite",
        action="append",
        choices=audit_mod.SUITES,
        help="restrict to one suite (repeatable; default: all)",
    )
    aud.add_argument("--timings", action="store_true", help="include wall times in the report")
    aud.add_argument(
        "--replay",
        default=None,
        help='replay one instance: JSON {"suite","master_seed","trial"} or @file',
    )
    _add_output_flags(aud)

    eta_p = sub.add_parser("eta", help="spectral asymmetry of twisted circle operators")
    eta_p.add_argument("--q", type=float, default=None, help="character phase in [0,1)")
    eta_p.add_argument("--phases", default=None, help="comma-separated eigenphases for rho_loop")
    eta_p.add_argument("--method", choices=("closed", "abel"), default="closed")
    eta_p.add_argument("--ladder", default=None, help="comma-separated descending t values")
    eta_p.add_argument("--order", type=int, default=DEFAULT_RICHARDSON_ORDER)
    _add_output_flags(eta_p)

    hom = sub.add_parser("homology", help="integer homology and obstruction counts")
    hom_sub = hom.add_subparsers(dest="family", required=True, metavar="family")
    f = hom_sub.add_parser("fbc", help="free-by-cyclic group from the induced matrix")
    f.add_argument("--matrix", required=True, help="JSON integer matrix, e.g. [[1]]")
    _add_output_flags(f)
    mt = hom_sub.add_parser("mapping-torus", help="surface mapping torus")
    mt.add_argument("--sign", type=int, choices=(1, -1), required=True)
    mt.add_argument("--matrix", required=True, help="action on first homology (JSON)")
    _add_output_flags(mt)
    sf = hom_sub.add_parser("surface", help="closed surface group")
    sf.add_argument("--genus", type=int, required=True)
    sf.add_argument("--non-orientable", dest="non_orientable", action="store_true")
    _add_output_flags(sf)
    bs = hom_sub.add_parser("bs", help="two-exponent one-relator family")
    bs.add_argument("--n", type=int, required=True)
    bs.add_argument("--m", type=int, required=True)
    _add_output_flags(bs)
    sn = hom_sub.add_parser("snf", help="Smith normal form of an integer matrix")
    sn.add_argument("--matrix", required=True)
    _add_output_flags(sn)

    pr = sub.add_parser("pairing", help="index pairing of a projection against block data")
    pr.add_argument("input", help="pairing JSON path, or - for stdin")
    pr.add_argument("--full", action="store_true", help="embed the spectral projection")
    _add_output_flags(pr)

    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "invariants": cmd_invariants,
    "audit": cmd_audit,
    "eta": cmd_eta,
    "homology": cmd_homology,
    "pairing": cmd_pairing,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, tols = _extract_tolerances(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, tols)
    except ObstructkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc or 'allocation failed'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
