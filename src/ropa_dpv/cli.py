"""Command-line interface.

Subcommands map one-to-one onto the library's capabilities:

* ``stats``    registry mapping summary, coverage table, self-check report
* ``validate`` Article 30 or per-jurisdiction validation of canonical files
* ``convert``  restrict canonical records to a target template with loss report
* ``export``   RDF export (Turtle or JSON-LD)
* ``query``    cross-record compliance rules
* ``import``   regulator-template CSV to canonical interchange format

Exit codes: 0 on success with no error findings or query hits, 1 when the
run completed but error findings or hits exist, 2 on usage or input errors.
Output is human-readable text by default; ``--json`` switches to a
machine-readable envelope with identical finding/hit content.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .errors import RopaError
from .records import _indented, _json, is_absolute_iri
from .registry import Jurisdiction, load_registry
from .template_io import (
    convert,
    default_config,
    import_template,
    parse_canonical,
    write_canonical,
)

# validation, queries and rdf_export are imported by the commands that use
# them, when they run, so that no other command pays for loading them.
_JURISDICTION_CODES = [j.value for j in Jurisdiction]
#: ``queries.RuleId``'s values, in its order, written out so that building
#: the parser does not import ``queries``.
_RULE_IDS = (
    "MISSING_MANDATORY",
    "TRANSFER_WITHOUT_SAFEGUARDS",
    "SPECIAL_CATEGORY_WITHOUT_BASIS",
    "JURISDICTION_READINESS",
)


class _Option(NamedTuple):
    """A long option: ``--flag`` when ``flag``, else ``--name value``."""

    name: str
    dest: str
    flag: bool = False
    choices: Sequence[str] | None = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    help: str
    options: tuple[_Option, ...]
    run: Callable[[SimpleNamespace], int]
    #: The dests of a group of which exactly one option must be given.
    one_of: tuple[str, ...] = ()
    description: str | None = None
    #: What stdout carries when ``--out`` is absent, so ``--json`` needs ``--out``.
    stdout: str | None = None


_INPUT = _Option("--input", "input", required=True, help="canonical interchange CSV")


def _json_flag(help: str) -> _Option:
    return _Option("--json", "json", flag=True, help=help)


def _match(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that ``_build_parser().parse_args(argv)`` returns, for an
    ``argv`` of one plain shape; None for any other.

    The shape: a command, then exact long options, each given at most once,
    as ``--flag`` or ``--name value`` with a value that does not start with
    ``-``; valid choices, every required option, and exactly one option of
    each required group.  Every other ``argv`` (help, ``--version``,
    abbreviations, ``--name=value``, repeats, ``--``, errors) is left to
    argparse, which stays the only source of help and error text.
    """
    command = _TABLE.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.name: option for option in command.options}
    given: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        option = options.get(argv[i])
        if option is None or option.dest in given:
            return None
        if option.flag:
            given[option.dest] = True
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        value = argv[i + 1]
        if value.startswith("-") or (option.choices is not None and value not in option.choices):
            return None
        given[option.dest] = value
        i += 2
    if any(option.required and option.dest not in given for option in command.options):
        return None
    if command.one_of and sum(dest in given for dest in command.one_of) != 1:
        return None
    unset = {option.dest: False if option.flag else None for option in command.options}
    return SimpleNamespace(command=argv[0], **{**unset, **given})


def _build_parser():
    # Imported here: a command line that ``_match`` reads loads neither
    # argparse nor the gettext, locale and shutil modules it brings.
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # noqa: D102 - argparse hook
            self.exit(2, f"ropa: error: {message}\n")

    parser = _Parser(
        prog="ropa",
        description="Registry, validation, conversion and RDF export for "
        "GDPR Records of Processing Activities.",
    )
    parser.add_argument("--version", action="version", version=f"ropa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in _TABLE.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        group = None
        for option in command.options:
            target = p
            if option.dest in command.one_of:
                if group is None:
                    group = p.add_mutually_exclusive_group(required=True)
                target = group
            if option.flag:
                target.add_argument(option.name, action="store_true", help=option.help)
            else:
                target.add_argument(
                    option.name,
                    dest=option.dest,
                    required=option.required,
                    choices=option.choices,
                    help=option.help,
                )
    return parser


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_file(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` of dicts with str
    keys, lists, str, int, bool and None, written directly.

    Each distinct dict or list is rendered once per indentation: the memo is
    keyed by its id, which ``value`` keeps alive until the text is done.
    """
    return _json_value(value, "", {})


def _json_value(value, pad: str, memo: dict[tuple[int, str], str]) -> str:
    # A module-level function, not a closure over ``memo``: a nested function
    # that calls itself is a reference cycle, which would keep the memo and
    # every rendered string alive until the cyclic collector runs.
    if isinstance(value, str):
        return _json(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    key = (id(value), pad)
    done = memo.get(key)
    if done is None:
        inner = pad + "  "
        if isinstance(value, dict):
            items = [f"{_json(k)}: {_json_value(v, inner, memo)}" for k, v in value.items()]
            done = _indented("{", items, "}", pad)
        elif isinstance(value, (list, tuple)):
            done = _indented("[", [_json_value(v, inner, memo) for v in value], "]", pad)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        memo[key] = done
    return done


def _emit_json(command: str, results: list) -> None:
    envelope = {
        "tool": "ropa",
        "version": __version__,
        "command": command,
        "results": results,
    }
    sys.stdout.write(_json_text(envelope) + "\n")


def _print_lines(lines: list[str], file=None) -> None:
    """``print`` each line to ``file`` (default stdout), in one write."""
    if lines:
        (file or sys.stdout).write("\n".join(lines) + "\n")


def _print_warnings(warnings: list[str]) -> None:
    _print_lines([f"ropa: warning: {warning}" for warning in warnings], sys.stderr)


def _load_canonical(args):
    """The registry and the records of ``args.input``, warnings printed."""
    registry = load_registry()
    records, warnings = parse_canonical(_read_file(args.input), registry)
    _print_warnings(warnings)
    return registry, records


def _cmd_stats(args) -> int:
    registry = load_registry()
    summary = registry.mapping_summary()
    coverage = registry.coverage_stats()
    check = registry.self_check()
    if args.json:
        _emit_json(
            "stats",
            [
                {"section": "mapping_summary", **summary._asdict()},
                {
                    "section": "coverage",
                    "entries": [
                        {
                            "concept": s.concept_id,
                            "template_values": s.coverage.template_values,
                            "dpv_values": s.coverage.dpv_values,
                            "sufficient": s.sufficient,
                        }
                        for s in coverage
                    ],
                },
                {"section": "self_check", **check.to_dict()},
            ],
        )
        return 0
    print(f"concepts: {summary.total} (plus the register container row)")
    print("mapping outcomes:")
    for name, delta in summary.published_delta.items():
        count = getattr(summary, name)
        suffix = "" if delta == 0 else f"  (published reference {count - delta}, delta {delta:+d})"
        print(f"  {name:<8} {count:>3}{suffix}")
    print("specified field values vs DPV:")
    for s in coverage:
        flag = "sufficient" if s.sufficient else "insufficient"
        print(
            f"  {s.concept_id:<55} {s.coverage.template_values:>3} / "
            f"{s.coverage.dpv_values:<3} {flag}"
        )
    print(check.to_text())
    return 0


def _cmd_validate(args) -> int:
    from .validation import validate_against_profile, validate_article30

    registry, records = _load_canonical(args)
    profile = (
        registry.profiles[Jurisdiction(args.profile)] if args.profile else None
    )
    results = []
    for record in records:
        if profile is None:
            report = validate_article30(record, registry)
        else:
            report = validate_against_profile(record, profile, registry)
        results.append((record, report))
    # Findings repeat across records: each distinct one is rendered once.
    distinct = {f for _, report in results for f in report.findings}
    if args.json:
        as_dict = {
            f: {
                "concept": f.concept,
                "severity": f.severity.value,
                "code": f.code.value,
                "message": f.message,
            }
            for f in distinct
        }
        _emit_json(
            "validate",
            [
                {
                    "record_id": record.record_id,
                    "compliant": report.compliant,
                    "findings": [as_dict[f] for f in report.findings],
                }
                for record, report in results
            ],
        )
    else:
        as_line = {
            f: f"  {f.severity.value:<7} {f.code.value:<22} {f.concept}: {f.message}"
            for f in distinct
        }
        lines = []
        for record, report in results:
            status = "COMPLIANT" if report.compliant else "NOT COMPLIANT"
            lines.append(
                f"record {record.record_id}: {status} "
                f"({report.error_count} error(s), {report.warning_count} warning(s))"
            )
            lines += [as_line[f] for f in report.findings]
        _print_lines(lines)
    return 0 if all(report.compliant for _, report in results) else 1


def _cmd_convert(args) -> int:
    registry, records = _load_canonical(args)
    to_config = default_config(registry, Jurisdiction(args.to_jurisdiction))
    converted = []
    results = []
    for record in records:
        new_record, loss = convert(record, to_config, registry)
        converted.append(new_record)
        results.append((record.record_id, loss))
    _write_file(args.out, write_canonical(converted, registry))
    if args.json:
        # Lost entries repeat across records: each distinct one is rendered once.
        as_dict = {
            lost: {"concept": lost[0], "reason": lost[1].value}
            for _, loss in results
            for lost in loss.lost
        }
        _emit_json(
            "convert",
            [
                {
                    "record_id": record_id,
                    "retained_count": loss.retained_count,
                    "lost": [as_dict[lost] for lost in loss.lost],
                }
                for record_id, loss in results
            ],
        )
    else:
        lines = []
        for record_id, loss in results:
            lines.append(
                f"record {record_id}: retained {loss.retained_count} concept(s), "
                f"lost {len(loss.lost)}"
            )
            lines += [f"  lost {cid} ({reason.value})" for cid, reason in loss.lost]
        _print_lines(lines)
    return 0


def _cmd_export(args) -> int:
    from .rdf_export import (
        DEFAULT_BASE,
        DEFAULT_ROPAEX_NS,
        records_to_graph,
        serialize_jsonld,
        serialize_turtle,
    )

    base = DEFAULT_BASE if args.base is None else args.base
    ropaex = DEFAULT_ROPAEX_NS if args.ropaex is None else args.ropaex
    for flag, iri in (("--base", base), ("--ropaex", ropaex)):
        if not is_absolute_iri(iri):
            raise RopaError(f"{flag} is not an absolute IRI: {iri!r}")
    registry, records = _load_canonical(args)
    graph = records_to_graph(records, registry, base=base, ropaex=ropaex)
    text = serialize_turtle(graph) if args.format == "turtle" else serialize_jsonld(graph)
    _write_file(args.out, text)
    if args.json:
        _emit_json("export", [{"records": len(records), "triples": len(graph),
                               "format": args.format, "output": args.out}])
    return 0


def _cmd_query(args) -> int:
    from .queries import QueryRule, RuleId, run_query

    registry, records = _load_canonical(args)
    rule = QueryRule(
        RuleId(args.rule),
        Jurisdiction(args.jurisdiction) if args.jurisdiction else None,
    )
    result = run_query(rule, records, registry)
    if args.json:
        _emit_json(
            "query",
            [
                {"rule": result.rule.value, "record_id": record_id, "detail": detail}
                for record_id, detail in result.hits
            ],
        )
    elif not result.hits:
        print(f"{result.rule.value}: no hits")
    else:
        _print_lines([f"{record_id}: {detail}" for record_id, detail in result.hits])
    return 1 if result.hits else 0


def _cmd_import(args) -> int:
    registry = load_registry()
    config = default_config(registry, Jurisdiction(args.template))
    records, warnings = import_template(_read_file(args.input), config, registry)
    _print_warnings(warnings)
    _write_file(args.out, write_canonical(records, registry))
    if args.json:
        _emit_json(
            "import",
            [{"records": len(records), "template": args.template, "output": args.out}],
        )
    return 0


#: Every subcommand: its options in the order of its help text, and its
#: handler.  ``_build_parser``, ``_match`` and ``cli_main`` read it.
_TABLE = {
    "stats": _Command(
        "registry mapping summary and self-check", (_json_flag("machine-readable output"),),
        _cmd_stats,
    ),
    "validate": _Command(
        "validate canonical records",
        (
            _INPUT,
            _Option("--article30", "article30", flag=True,
                    help="check Article 30 mandatory concepts"),
            _Option("--profile", "profile", choices=_JURISDICTION_CODES,
                    help="check one regulator's template"),
            _json_flag("machine-readable output"),
        ),
        _cmd_validate,
        one_of=("article30", "profile"),
    ),
    "convert": _Command(
        "convert records between template shapes",
        (
            _INPUT,
            # The source template is named for the user's sake; only --to shapes the output.
            _Option("--from", "from_jurisdiction", choices=_JURISDICTION_CODES, required=True),
            _Option("--to", "to_jurisdiction", choices=_JURISDICTION_CODES, required=True),
            _Option("--out", "out", required=True, help="output canonical CSV path"),
            _json_flag("machine-readable loss report"),
        ),
        _cmd_convert,
    ),
    "export": _Command(
        "export records as RDF",
        (
            _INPUT,
            _Option("--format", "format", choices=["turtle", "jsonld"], required=True),
            _Option("--base", "base", help="base IRI for record nodes"),
            _Option("--ropaex", "ropaex", help="extension namespace IRI"),
            _Option("--out", "out", help="output path (default: stdout)"),
            _json_flag("machine-readable summary"),
        ),
        _cmd_export,
        stdout="the RDF",
    ),
    "query": _Command(
        "cross-record compliance queries",
        (
            _INPUT,
            _Option("--rule", "rule", choices=_RULE_IDS, required=True),
            _Option("--jurisdiction", "jurisdiction", choices=_JURISDICTION_CODES),
            _json_flag("machine-readable output"),
        ),
        _cmd_query,
        description="TRANSFER_WITHOUT_SAFEGUARDS and SPECIAL_CATEGORY_WITHOUT_BASIS "
        "are artifact-defined heuristics derived from the registry's "
        "mandatory/optional structure, not statutory tests.",
    ),
    "import": _Command(
        "import a regulator-template CSV",
        (
            _Option("--input", "input", required=True, help="template-shaped CSV"),
            _Option("--template", "template", choices=_JURISDICTION_CODES, required=True),
            _Option("--out", "out", help="output canonical CSV path (default: stdout)"),
            _json_flag("machine-readable summary"),
        ),
        _cmd_import,
        stdout="the canonical CSV",
    ),
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    command = _TABLE[args.command]
    try:
        if command.stdout and args.json and not args.out:
            raise RopaError(f"--json requires --out (stdout carries {command.stdout})")
        return command.run(args)
    except (RopaError, OSError) as exc:
        print(f"ropa: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # One command runs per process, and no command leaves garbage that grows
    # with its input (test_cli.py's test_no_command_leaves_garbage_that_grows),
    # so the cyclic collector's passes would only rescan live objects.
    gc.disable()
    # stdout carries the same bytes as --out, and stderr the same diagnostics,
    # whatever the locale.  A non-UTF-8 byte of argv (in a path) reaches them
    # as a lone surrogate, which both write as its escape, \udcXX.
    sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    code = cli_main()
    # So that interpreter shutdown skips the collector's full passes over every live object.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
