"""Command-line surface: check, verdict, ladder, subrings, search, gen.

Exit codes: 0 = report computed with no failures; 1 = at least one
Fail/violation/obstruction (or an unmet mathematical precondition) in the
report; 2 = usage or input error, a rank bound included.  Reports are
deterministic: identical inputs produce byte-identical output, in text or
JSON (``--format json``, stable schema ``fusionring-report/1``).

The command line is declared once, in ``_MAIN_OPTIONS`` and ``_COMMANDS``.
A plain argv is read straight from that table; argparse, built from the
same table, loads only to print ``--help`` or to word a rejection.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Optional

from . import __version__

# Every op reads or writes a spec, so only `ring` and `specfmt` load here.
# Each _cmd_* imports the modules it runs, so an op loads no others.
from .ring import (
    GEN_RANK_BOUND, FusionRing, FusionRingError, InvalidSetting, RankTooLarge, UnknownLabel, UnknownProduct,
    _check_rank, format_terms,
)
from .specfmt import RingSemanticError, RingSyntaxError, _decimal, parse_spec, write_spec

SCHEMA = "fusionring-report/1"


class _InputError(Exception):
    pass


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _read_ring(path: str) -> FusionRing:
    try:
        return parse_spec(_read_text(path))
    except (RingSyntaxError, RingSemanticError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit(args, code: int, lines: list[str], **fields) -> tuple[int, str]:
    """The report in ``args.format``: text ``lines``, or the JSON envelope plus ``fields``."""
    if args.format == "json":
        import json

        payload = {"schema": SCHEMA, "command": args.command, "exit_code": code, **fields}
        return code, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return code, "\n".join(lines) + "\n"


def _cmd_check(args) -> tuple[int, str]:
    from .axioms import check_axioms, check_stabilizer_rule

    ring = _read_ring(args.file)
    report = check_axioms(ring)
    lines = [f"ring {ring.name}: axiom checks"]
    for e in report.entries:
        lines.append(f"  {e.name}: {e.status} (pass {e.passed}, fail {e.failed}, skip {e.skipped})")
        if e.witness:
            lines.append(f"    witness: {e.witness.detail}")
    stab_reports = []
    failed = report.has_failures
    for b in ring.elements:
        try:
            stab = check_stabilizer_rule(ring, b.label)
        except UnknownProduct:
            lines.append(f"  stabilizer[{b.label}]: skipped-unknown")
            stab_reports.append({"element": b.label, "status": "skipped-unknown"})
            continue
        status = "fail" if stab.has_failures else ("pass" if stab.all_pass else "skipped-unknown")
        failed = failed or stab.has_failures
        lines.append(f"  stabilizer[{b.label}]: {status}")
        for e in stab.entries:
            if e.witness:
                lines.append(f"    {e.name}: {e.witness.detail}")
        stab_reports.append({"element": b.label, "status": status, "checks": stab.as_dict()["checks"]})
    lines.append("FAIL" if failed else "OK")
    return _emit(
        args, 1 if failed else 0, lines,
        ring=ring.name, axioms=report.as_dict()["checks"], stabilizers=stab_reports,
    )


def _cmd_verdict(args) -> tuple[int, str]:
    from .ladder import dichotomy_verdict

    ring = _read_ring(args.file)
    verdict = dichotomy_verdict(ring, max_depth=args.depth)
    lines = [f"ring {ring.name}: verdict {verdict.kind}"]
    if verdict.kind == "grouplike":
        lines.append(f"  grouplike {verdict.grouplike} of order {verdict.order}")
        if verdict.dimension is not None:
            word = "divisible" if verdict.divisible_by_3 else "NOT divisible"
            lines.append(f"  dimension {verdict.dimension} is odd and {word} by 3")
    elif verdict.kind == "ladder":
        cert = verdict.certificate
        lines.append(f"  ladder depth {cert.depth_reached}")
        lines.append(f"  x family: {' '.join(cert.x_family)}")
        lines.append(f"  x' family: {' '.join(cert.xprime_family)}")
    elif verdict.kind in ("truncated", "obstruction"):
        lines.append(f"  {verdict.detail}")
    code = 1 if verdict.kind == "obstruction" else 0
    return _emit(args, code, lines, ring=ring.name, verdict=verdict.as_dict())


def _cmd_ladder(args) -> tuple[int, str]:
    from .ladder import TruncationReached, ladder_build

    ring = _read_ring(args.file)
    try:
        cert = ladder_build(ring, args.x3, max_depth=args.depth)
    except UnknownLabel as exc:  # the file lacks the label: an input error
        raise _InputError(f"{args.file}: {exc}") from exc
    except FusionRingError as exc:
        return _emit(args, 1, [f"ring {ring.name}: ladder error: {exc}"], ring=ring.name, error=str(exc))
    lines = [f"ring {ring.name}: ladder from {args.x3}, depth {cert.depth_reached}"]
    for n, decomp in cert.relations:
        lines.append(f"  x_{2 * n + 1} * x_3 = {format_terms(decomp)}")
    terminal = cert.terminal_status
    if isinstance(terminal, TruncationReached):
        lines.append(f"  truncation reached at depth {terminal.depth}")
        code = 0
    else:
        lines.append(f"  failure branch: {terminal.kind}: {terminal.diagnosis}")
        code = 0 if terminal.kind == "grouplike_order2" else 1
    return _emit(args, code, lines, ring=ring.name, certificate=cert.as_dict())


def _cmd_subrings(args) -> tuple[int, str]:
    from .subrings import enumerate_standard_subrings, freeness_obstructions

    ring = _read_ring(args.file)
    subs = enumerate_standard_subrings(ring)
    violations = freeness_obstructions(ring, subs)
    lines = [f"ring {ring.name}: {len(subs)} dual-closed standard subrings"]
    for s in subs:
        lines.append(f"  dimension {s.hopf_dimension}: {{{', '.join(s.members)}}}")
    if violations:
        lines.append("realizability obstructions (nested dimensions fail to divide):")
        for small, big in violations:
            lines.append(
                f"  {small.hopf_dimension} does not divide {big.hopf_dimension}"
            )
    return _emit(
        args, 1 if violations else 0, lines,
        ring=ring.name,
        subrings=[s.as_dict() for s in subs],
        violations=[[small.hopf_dimension, big.hopf_dimension] for small, big in violations],
    )


def _cmd_search(args) -> tuple[int, str]:
    from .search import enumerate_rings

    degrees = [_decimal(tok.strip()) for tok in args.degrees.split(",")]
    if not all(degrees):  # an item that is empty, not decimal or 0
        raise _InputError(f"--degrees: expected positive integers, got {args.degrees!r}")
    rings = enumerate_rings(degrees, args.max_mult)
    specs = [write_spec(r) for r in rings]
    lines = [f"# {len(rings)} ring(s) with degrees {sorted(degrees)}"]
    for spec in specs:
        lines.append("")
        lines.append(spec.rstrip("\n"))
    return _emit(args, 0, lines, count=len(rings), rings=specs)


def _cmd_gen(args) -> tuple[int, str]:
    kind = args.what[0]
    if kind in ("cyclic", "so3"):
        if len(args.what) != 2:
            example = "an order, e.g. gen cyclic 5" if kind == "cyclic" else "an odd max degree, e.g. gen so3 21"
            raise _InputError(f"gen {kind} needs {example}")
        n = _decimal(args.what[1].strip())
        if n is None:
            raise _InputError(f"gen {kind}: expected a decimal integer, got {args.what[1]!r}")
        from .oracles import cyclic_group_ring, so3_truncated

        try:
            _check_rank(n if kind == "cyclic" else (n + 1) // 2, GEN_RANK_BOUND)
            ring = cyclic_group_ring(n) if kind == "cyclic" else so3_truncated(n)
        except ValueError as exc:
            raise _InputError(f"gen {kind}: {exc}") from exc
    elif kind == "fragment":
        if len(args.what) != 1:
            raise _InputError("gen fragment takes no argument")
        from .oracles import fragment_ring

        ring = fragment_ring()
    elif kind == "chartable":
        if len(args.what) != 2:
            raise _InputError("gen chartable needs a table file")
        from .chartable import char_table_ring, parse_character_table

        try:
            ring = char_table_ring(parse_character_table(_read_text(args.what[1])))
        except (ValueError, FusionRingError) as exc:
            raise _InputError(f"{args.what[1]}: {exc}") from exc
    else:
        raise _InputError(f"gen: unknown generator {kind!r} (cyclic|so3|fragment|chartable)")
    spec = write_spec(ring)
    if args.format == "json":
        return _emit(args, 0, [], ring=ring.name, spec=spec)
    return 0, spec  # the text report is the spec itself, not a copy


def _one_line(message: object) -> str:
    """``message`` with unprintable characters, such as a newline in a path, escaped."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))


def _positive(text: str) -> Optional[int]:
    """``text`` as a positive decimal integer, spaces around it allowed; None if it is not one."""
    return _decimal(text.strip()) or None


def _positive_int(text: str) -> int:
    """``_positive`` as an argparse type: argparse words the refusal."""
    value = _positive(text)
    if value is None:
        import argparse  # as in build_parser: a plain argv never loads it

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _option(dest, type=None, default=None, required=False, help=None, choices=None) -> dict:
    """The ``add_argument`` keywords of an option that takes one value."""
    return {"dest": dest, "type": type, "default": default, "required": required, "help": help, "choices": choices}


# The command line, declared once and walked by both build_parser() and
# _read_plain(): the options before the subcommand, and per subcommand its
# handler, help, positional (dest and nargs, or None) and options.  Each
# option maps its flag to add_argument's keywords.
_MAIN_OPTIONS = {
    "--version": {"action": "version", "version": f"%(prog)s {__version__}"},
    "--format": _option("format", default="text", help="report format", choices=("text", "json")),
}
_COMMANDS = {
    "check": (_cmd_check, "run axiom and stabilizer checks on a ring file", ("file", None), {}),
    "verdict": (
        _cmd_verdict, "degree-3 dichotomy verdict for a ring file", ("file", None),
        {"--depth": _option("depth", _positive_int, help="cap on verified ladder relations")},
    ),
    "ladder": (
        _cmd_ladder, "build the odd-degree ladder certificate", ("file", None),
        {
            "--x3": _option("x3", required=True, help="label of the self-dual degree-3 element"),
            "--depth": _option("depth", _positive_int, help="cap on verified ladder relations"),
        },
    ),
    "subrings": (_cmd_subrings, "enumerate standard subrings and divisibility obstructions", ("file", None), {}),
    "search": (
        _cmd_search, "enumerate rings with prescribed degrees", None,
        {
            "--degrees": _option("degrees", required=True, help="comma-separated degree list, e.g. 1,1,1,3"),
            "--max-mult": _option("max_mult", _positive_int, default=3, help="cap on each structure constant"),
            "--workers": _option(
                "workers", _positive_int, help="accepted for compatibility and ignored: the search runs in one process"
            ),
        },
    ),
    "gen": (
        _cmd_gen, "generate a ring spec: cyclic N | so3 MAXDEG | fragment | chartable FILE", ("what", "+"), {}
    ),
}


def build_parser():
    """The ``argparse`` parser of the command line: it prints the help and
    words each rejection, for every argv that ``_read_plain`` leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Rejected arguments give one ``fusionring: message`` line and exit 2,
        like every other input error; subparsers are built with this class too."""

        def error(self, message: str):
            self.exit(2, f"fusionring: {_one_line(message)}\n")

    parser = _Parser(
        prog="fusionring",
        description="Exact fusion-ring checks, subring obstructions, and ladder analysis.",
    )
    for flag, keywords in _MAIN_OPTIONS.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if positional is not None:
            p.add_argument(positional[0], nargs=positional[1])
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def _read_options(tokens: list[str], options: dict, values: dict) -> Optional[list[str]]:
    """Store in ``values`` each option's default, then the value each
    ``--flag VALUE`` pair of ``tokens`` gives it; return the other tokens.
    None where argparse must decide: a flag that ``options`` lacks or that
    takes no value, a value beginning with ``-``, one that its type or
    choices refuse, or a required option left out."""
    for keywords in options.values():
        if "dest" in keywords:
            values[keywords["dest"]] = keywords["default"]
    positionals, given = [], set()
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        keywords = options.get(token, {})
        value = next(tokens, "-")  # a missing value is refused like one beginning with "-"
        if "dest" not in keywords or value.startswith("-"):
            return None
        if keywords["type"] is _positive_int:  # the table's one type, read without its argparse error
            value = _positive(value)
            if value is None:
                return None
        if keywords["choices"] is not None and value not in keywords["choices"]:
            return None
        values[keywords["dest"]] = value
        given.add(token)
    if any(keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    return positionals


def _read_plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """What ``build_parser().parse_args(argv)`` gives for a plain argv,
    ``[--format text|json] COMMAND ARG... [--option VALUE]...`` with each
    option spelled in full, without loading argparse.  ``--version`` alone
    prints the version and exits 0.  None for any other argv: an
    abbreviation, ``--opt=value``, ``--``, ``-h``, a value beginning with
    ``-``, a bad integer, a missing required option or the wrong number of
    positionals, whose help or rejection argparse words."""
    if argv == ["--version"]:
        sys.stdout.write(f"fusionring {__version__}\n")  # what argparse's version action prints
        raise SystemExit(0)
    k = 0  # the subcommand's index: past each main option and its value
    while k < len(argv) and argv[k].startswith("-"):
        k += 2
    if k >= len(argv) or argv[k] not in _COMMANDS:
        return None
    handler, _, positional, options = _COMMANDS[argv[k]]
    values = {"command": argv[k], "func": handler}
    if _read_options(argv[:k], _MAIN_OPTIONS, values) is None:
        return None
    args = _read_options(argv[k + 1:], options, values)
    if args is None or (positional is None and args):
        return None
    if positional is not None:
        dest, nargs = positional
        if not (len(args) == 1 or (nargs == "+" and args)):
            return None
        values[dest] = args if nargs == "+" else args[0]
    return SimpleNamespace(**values)


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code, output = args.func(args)
    except (_InputError, FusionRingError) as exc:
        print(f"fusionring: {_one_line(exc)}", file=sys.stderr)
        input_errors = (_InputError, RingSyntaxError, RingSemanticError, InvalidSetting, RankTooLarge)
        return 2 if isinstance(exc, input_errors) else 1
    sys.stdout.write(output)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
