"""Command-line driver: generate witnesses, compute invariants, audit bounds.

Exit codes: 0 success; 1 unusable input (flags, files, JSON, family
parameters); 2 a mathematical hypothesis of the requested computation fails;
3 internal numerical inconsistency; 4 an audited bound was violated.

All output is ``json.dumps(payload, sort_keys=True, indent=2)`` and a
newline, so identical inputs, seeds and tolerance overrides produce
byte-identical bytes.  The overrides ``--tol.gap`` (spectral-gap window of
the pairing) and ``--tol.unitarity`` (input validation for raw unitary pairs)
are ordinary argparse options on every parser, so they go before or after the
subcommand, as ``--tol.gap 0.01`` or ``--tol.gap=0.01``; a value must be
finite and non-negative.

Each command imports the library modules it runs when it runs, so start-up
is paid by subcommand: ``homology`` and ``eta`` never load NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain
from pathlib import Path

from .errors import AuditViolation, ObstructkitError, ParseError

_GEN_STREAM = 31


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(raw: str) -> float:
    """Value of a ``--tol.<name>`` flag: a finite, non-negative number."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a number, got {raw!r}") from None
    # a NaN or infinite tolerance would switch its gate off, a negative one
    # would refuse every input
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {raw!r}")
    return value


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


def _json_text(node, indent=""):
    """``json.dumps(node, sort_keys=True, indent=2)``, nested at ``indent``.

    CPython's C encoder runs only without ``indent``, so this writer walks
    the containers itself.  A list of equal, non-empty lists of exact
    ``float``/``int`` leaves (a matrix row of ``[re, im]`` pairs, an integer
    matrix) is one ``%r`` template, the text ``float.__repr__`` and
    ``int.__repr__`` give json too; a NaN or infinity, the only float texts
    with an ``n``, sends it back to json.  Every other node, ``bool`` and
    ``np.float64`` leaves and non-``str`` keys included, is json's own text
    re-indented, which is exact because JSON text holds no raw newline.
    """
    inner = indent + "  "
    if type(node) is dict and node and set(map(type, node)) == {str}:
        items = (f"{json.dumps(k)}: {_json_text(node[k], inner)}" for k in sorted(node))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(node) is list and node:
        width = len(node[0]) if type(node[0]) is list else 0
        if not (width and set(map(type, node)) == {list} and set(map(len, node)) == {width}
                and set(map(type, chain.from_iterable(node))) <= {float, int}):
            items = (_json_text(item, inner) for item in node)
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
        row = "\n" + inner + "[" + ",".join(["\n" + inner + "  %r"] * width) + "\n" + inner + "]"
        text = ("[" + ",".join([row] * len(node)) + "\n" + indent + "]") % tuple(
            chain.from_iterable(node)
        )
        if "n" not in text:
            return text
    return json.dumps(node, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _emit(payload, out_path):
    """Write exactly ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline."""
    with _uncapped_int_text():
        text = _json_text(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are distinct; a repeated key is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _parse_json(text: str, source: str):
    """Decode JSON; bad syntax, repeated keys, deep nesting or an over-long number: ParseError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {source}: {exc}") from exc


def _load_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, path)


def _matrix_arg(text: str):
    from .homology import int_matrix

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
    from .quasirep import honest_commuting_rep, perturbed_honest_rep, symmetrized_generators
    from .seeding import derive_rng

    rng = derive_rng(_seed(args.seed, "--seed"), _GEN_STREAM)
    if args.eps is None:
        return honest_commuting_rep(pres, args.dim, rng)
    return perturbed_honest_rep(pres, symmetrized_generators(pres), args.eps, args.dim, rng)


def cmd_gen(args) -> int:
    from .quasirep import clock_shift, quasirep_to_json, unitary_pair_rep, voiculescu_pair
    from .words import free_abelian_presentation, surface_presentation

    if args.family == "voiculescu":
        u, v = voiculescu_pair(args.delta, args.k)
        rep = unitary_pair_rep(u, v)
    elif args.family == "clock-shift":
        u, v = clock_shift(args.n)
        rep = unitary_pair_rep(u, v)
    elif args.family == "surface":
        pres = surface_presentation(args.genus, orientable=not args.non_orientable)
        if args.non_orientable and args.eps is not None:
            raise ParseError(
                "perturbed non-orientable surface models are not provided; "
                "omit --eps for an exact one"
            )
        rep = _honest_or_perturbed(pres, args)
    else:  # abelian
        rep = _honest_or_perturbed(free_abelian_presentation(args.rank), args)
    _emit(quasirep_to_json(rep), args.out)
    return 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _parse_pairs(spec: str, pres):
    from .words import CommutatorDecomposition, word_from_text

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
    from .words import commutator_decompose, exponent_sums

    for r in pres.relators:
        if not any(exponent_sums(r, pres.num_generators)):
            return commutator_decompose(r)
    return None


def cmd_invariants(args) -> int:
    from .matcore import UNITARITY_TOL, matrix_from_json
    from .quasirep import (
        commutation_defect,
        defect,
        defect_report_to_json,
        quasirep_from_json,
        symmetrized_generators,
    )
    from .winding import winding_class, winding_pair

    obj = _load_json(args.input)
    if isinstance(obj, dict) and "u" in obj and "v" in obj:
        if args.pairs is not None:  # a raw pair has no words: refused, not ignored
            raise ParseError("--pairs needs a quasi-representation file, not a raw u, v pair")
        u = matrix_from_json(obj["u"])
        v = matrix_from_json(obj["v"])
        report = winding_pair(u, v, unitarity_tol=getattr(args, "tol_unitarity", UNITARITY_TOL))
        payload = {
            "input": "unitary-pair",
            "commutation_defect": commutation_defect(u, v),
            "winding": asdict(report),
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
    if phi.flavor != "unitary" and not args.pairs:
        payload["winding"] = {"skipped": "flavor is not unitary; unitarize first"}
    elif decomp is None:
        payload["winding"] = {
            "skipped": "no relator with vanishing exponent sums; pass --pairs"
        }
    else:
        # winding_class refuses a non-unitary flavor given --pairs
        payload["winding"] = asdict(winding_class(phi, decomp))
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(args) -> int:
    from . import audit as audit_mod
    from .matcore import json_value

    if args.replay is not None:
        raw = args.replay
        obj = _load_json(raw[1:]) if raw.startswith("@") else _parse_json(raw, "--replay")
        try:
            suite, seed, trial = obj["suite"], obj["master_seed"], obj["trial"]
        except (KeyError, TypeError) as exc:
            raise ParseError(
                "--replay needs fields suite, master_seed, trial"
            ) from exc
        audit_mod.require_suites([json_value(suite, (str,), "replay suite")])
        _seed(json_value(seed, (int,), "replay master_seed"), "replay master_seed")
        _seed(json_value(trial, (int,), "replay trial"), "replay trial")
        ratios, failure = audit_mod.judge_trial(suite, seed, trial)
        replay = {"suite": suite, "master_seed": seed, "trial": trial}
        _emit(failure if ratios is None else {**replay, "ratios": ratios}, args.out)
        if failure is not None:
            raise AuditViolation("replayed instance fails its bound", measured=failure)
        return 0

    outcome = audit_mod.run_audit(_seed(args.seed, "--seed"), args.trials, args.suite)
    _emit(audit_mod.audit_outcome_to_json(outcome, include_timings=args.timings), args.out)
    if not outcome.all_passed:
        failing = [r for r in outcome.suites if not r.passed]
        raise AuditViolation(
            f"audit failed in: {', '.join(r.suite for r in failing)} (failures are in the report)",
            measured=failing[0].failures[0],
        )
    return 0


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def _number_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"{flag} must be comma-separated numbers: {exc}") from exc


def cmd_eta(args) -> int:
    from .eta import (
        CharacterTwist,
        eta_character_abel,
        eta_character_closed,
        rho_loop,
    )

    if (args.q is None) == (args.phases is None):
        raise ParseError("give exactly one of --q or --phases")
    if args.phases is not None and args.method == "abel":
        raise ParseError("--method abel needs --q, not --phases")
    # read only by the Abel method; refused, not ignored, anywhere else
    if args.method != "abel" and (args.ladder is not None or args.order is not None):
        raise ParseError("--ladder and --order need --q with --method abel")
    if args.phases is not None:
        phases = _number_list(args.phases, "--phases")
        _emit({"phases": phases, "rho_loop": rho_loop(phases)}, args.out)
        return 0
    tw = CharacterTwist(args.q)
    if args.method == "closed":
        res = eta_character_closed(tw)
    else:
        given = {} if args.order is None else {"richardson_order": args.order}
        if args.ladder is not None:
            given["t_ladder"] = tuple(_number_list(args.ladder, "--ladder"))
        res = eta_character_abel(tw, **given)
    _emit(asdict(res), args.out)
    return 0


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def cmd_homology(args) -> int:
    from .homology import (
        abelian_group_to_json,
        free_by_cyclic_h2,
        int_matrix_to_json,
        mapping_torus_surface_h2,
        obstruction_count,
        smith_normal_form,
    )

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


def cmd_pairing(args) -> int:
    from .matcore import matrix_to_json
    from .projops import pairing, pairing_input_from_json

    obj = _load_json(args.input)
    if isinstance(obj, dict) and hasattr(args, "tol_gap"):
        obj["gap_tol"] = args.tol_gap  # the flag overrides the file
    inp = pairing_input_from_json(obj)
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


def build_parser() -> argparse.ArgumentParser:
    # every parser takes the tolerances, so they may come before or after the
    # subcommand; SUPPRESS keeps an absent flag from overwriting a given one
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol.gap", dest="tol_gap", type=_tolerance, default=argparse.SUPPRESS,
                     help="spectral-gap window of the index pairing (default 0.05)")
    tol.add_argument("--tol.unitarity", dest="tol_unitarity", type=_tolerance,
                     default=argparse.SUPPRESS, help="validation threshold for raw unitary pairs")
    leaf = argparse.ArgumentParser(add_help=False, parents=[tol])
    leaf.add_argument("--out", default=None, help="write JSON here instead of stdout")
    rep = argparse.ArgumentParser(add_help=False, parents=[leaf])
    rep.add_argument("--eps", type=float, default=None, help="perturb to defect below eps")
    rep.add_argument("--dim", type=int, default=8)
    rep.add_argument("--seed", type=int, default=0)
    surf = argparse.ArgumentParser(add_help=False)
    surf.add_argument("--genus", type=int, required=True)
    surf.add_argument("--non-orientable", dest="non_orientable", action="store_true")

    parser = _Parser(
        prog="obstructkit",
        description="winding-number obstructions for almost-multiplicative matrix families",
        parents=[tol],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", parents=[tol], help="generate witness files")
    gen_sub = gen.add_subparsers(dest="family", required=True, metavar="family")
    v = gen_sub.add_parser("voiculescu", parents=[leaf],
                           help="almost-commuting pair with chosen winding")
    v.add_argument("--delta", type=float, default=0.5, help="commutation defect bound")
    v.add_argument("--k", type=int, default=1, help="winding number of the pair")
    c = gen_sub.add_parser("clock-shift", parents=[leaf],
                           help="the n-dimensional clock-and-shift pair")
    c.add_argument("--n", type=int, required=True)
    gen_sub.add_parser("surface", parents=[rep, surf], help="surface-group representation")
    ab = gen_sub.add_parser("abelian", parents=[rep], help="free-abelian representation")
    ab.add_argument("--rank", type=int, default=2)

    inv = sub.add_parser("invariants", parents=[leaf],
                         help="winding and defect reports for a witness file")
    inv.add_argument("input", help="witness JSON path, or - for stdin")
    inv.add_argument(
        "--pairs",
        default=None,
        help="commutator decomposition as word pairs 'a,b;c,d' (default: from a relator)",
    )

    aud = sub.add_parser("audit", parents=[leaf], help="run randomized bound-audit suites")
    aud.add_argument("--trials", type=int, default=1000)
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--suite", action="append",
                     help="restrict to one suite (repeatable; default: all)")
    aud.add_argument("--timings", action="store_true", help="include wall times in the report")
    aud.add_argument(
        "--replay",
        default=None,
        help='replay one instance: JSON {"suite","master_seed","trial"} or @file',
    )

    eta_p = sub.add_parser("eta", parents=[leaf],
                           help="spectral asymmetry of twisted circle operators")
    eta_p.add_argument("--q", type=float, default=None, help="character phase in [0,1)")
    eta_p.add_argument("--phases", default=None, help="comma-separated eigenphases for rho_loop")
    eta_p.add_argument("--method", choices=("closed", "abel"), default="closed")
    eta_p.add_argument("--ladder", default=None, help="comma-separated descending t values")
    eta_p.add_argument("--order", type=int, default=None)

    hom = sub.add_parser("homology", parents=[tol], help="integer homology and obstruction counts")
    hom_sub = hom.add_subparsers(dest="family", required=True, metavar="family")
    f = hom_sub.add_parser("fbc", parents=[leaf],
                           help="free-by-cyclic group from the induced matrix")
    f.add_argument("--matrix", required=True, help="JSON integer matrix, e.g. [[1]]")
    mt = hom_sub.add_parser("mapping-torus", parents=[leaf], help="surface mapping torus")
    mt.add_argument("--sign", type=int, choices=(1, -1), required=True)
    mt.add_argument("--matrix", required=True, help="action on first homology (JSON)")
    hom_sub.add_parser("surface", parents=[leaf, surf], help="closed surface group")
    bs = hom_sub.add_parser("bs", parents=[leaf], help="two-exponent one-relator family")
    bs.add_argument("--n", type=int, required=True)
    bs.add_argument("--m", type=int, required=True)
    sn = hom_sub.add_parser("snf", parents=[leaf], help="Smith normal form of an integer matrix")
    sn.add_argument("--matrix", required=True)

    pr = sub.add_parser("pairing", parents=[leaf],
                        help="index pairing of a projection against block data")
    pr.add_argument("input", help="pairing JSON path, or - for stdin")
    pr.add_argument("--full", action="store_true", help="embed the spectral projection")

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
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ObstructkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc or 'allocation failed'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
