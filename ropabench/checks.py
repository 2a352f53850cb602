"""Output checks for the ropa benchmark.

Every check compares a command's output with something other than the code
under test: what the corpus generator wrote and recorded, the registry's
data, a plain ``csv`` re-read, or the independent Turtle/JSON-LD readers in
``tests/rdf_oracle.py``.  A check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass

TRANSFER_COUNTRIES = "third-countries-that-personal-data-are-transferred-to"
TRANSFER_SAFEGUARDS = "appropriate-safeguards-for-third-country-transfers-technology-used"

_STATUS_RE = re.compile(r"^record (\S+): (COMPLIANT|NOT COMPLIANT) \(", re.M)
_DROPPED = "; value dropped"


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Output:
    code: int
    stdout: str
    stderr: str


def failure(check, out: Output) -> str | None:
    """Why ``check`` rejects ``out``, or None when it accepts it."""
    try:
        check(out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error, OSError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def common(out: Output, expected_code: int, dropped: int) -> None:
    """Exit status, some output, and one warning per value written invalid."""
    _require(out.code == expected_code, f"exit status {out.code}, expected {expected_code}")
    _require(bool(out.stdout), "no output")
    warned = sum(1 for line in out.stderr.splitlines() if line.endswith(_DROPPED))
    _require(warned == dropped, f"{warned} dropped-value warnings, expected {dropped}")


def compliant(corpus) -> list[bool]:
    """Article 30 compliance per record: every mandatory concept populated."""
    return [corpus.mandatory <= pop for pop in corpus.register.populated]


def validate_text(corpus, out: Output) -> None:
    expected = compliant(corpus)
    common(out, 0 if all(expected) else 1, corpus.register.dropped)
    status = _STATUS_RE.findall(out.stdout)
    _require(
        [rid for rid, _ in status] == list(corpus.register.record_ids),
        f"{len(status)} status lines for {len(expected)} records",
    )
    _require(
        [s == "COMPLIANT" for _, s in status] == expected, "compliance differs"
    )


def validate_json(corpus, out: Output) -> None:
    expected = compliant(corpus)
    common(out, 0 if all(expected) else 1, corpus.register.dropped)
    results = json.loads(out.stdout)["results"]
    _require(
        [r["record_id"] for r in results] == list(corpus.register.record_ids),
        "record ids differ",
    )
    _require([r["compliant"] for r in results] == expected, "compliance differs")


def readiness_hits(corpus) -> list[str]:
    """Expected JURISDICTION_READINESS lines, from the registry's profiles.

    The generator writes only seeded vocabulary terms, so the only findings
    are missing mandatory concepts (errors) and missing profile concepts
    (warnings).
    """
    lines = []
    for rid, pop in zip(corpus.register.record_ids, corpus.register.populated):
        errors = len(corpus.mandatory - pop)
        for code, concepts in sorted(corpus.profiles.items()):
            warnings = len(concepts - corpus.mandatory - pop)
            if errors or warnings:
                lines.append(f"{rid}: {code}: {errors} error(s), {warnings} warning(s)")
    return sorted(lines, key=lambda line: tuple(line.split(": ", 1)))


def _hit_lines(rule: str, out: Output) -> list[str]:
    lines = out.stdout.splitlines()
    return [] if lines == [f"{rule}: no hits"] else lines


def query_readiness(corpus, out: Output) -> None:
    expected = readiness_hits(corpus)
    common(out, 1 if expected else 0, corpus.register.dropped)
    _require(_hit_lines("JURISDICTION_READINESS", out) == expected, "readiness hits differ")


def query_transfer(corpus, out: Output) -> None:
    expected = [
        rid
        for rid, pop in zip(corpus.register.record_ids, corpus.register.populated)
        if TRANSFER_COUNTRIES in pop and TRANSFER_SAFEGUARDS not in pop
    ]
    common(out, 1 if expected else 0, corpus.register.dropped)
    hits = [line.split(": ", 1)[0] for line in _hit_lines("TRANSFER_WITHOUT_SAFEGUARDS", out)]
    _require(hits == expected, f"{len(hits)} transfer hits, expected {len(expected)}")


def canonical_ids(text: str) -> list[str]:
    """Record ids of a canonical file, in order of first appearance."""
    rows = list(csv.reader(io.StringIO(text), strict=True))
    _require(
        bool(rows) and rows[0] == ["record_id", "concept_id", "value_index", "value_kind", "value"],
        "canonical header missing",
    )
    ids = []
    for row in rows[1:]:
        _require(len(row) == 5, f"canonical row with {len(row)} columns")
        if not ids or ids[-1] != row[0]:
            ids.append(row[0])
    return ids


def read_text(path) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def convert(corpus, to_code: str, out_path, out: Output) -> None:
    common(out, 0, corpus.register.dropped)
    ids = list(corpus.register.record_ids)
    results = json.loads(out.stdout)["results"]
    _require([r["record_id"] for r in results] == ids, "loss report ids differ")
    target = corpus.profiles[to_code]
    _require(
        [r["retained_count"] for r in results]
        == [len(pop & target) for pop in corpus.register.populated],
        "retained counts differ",
    )
    _require(canonical_ids(read_text(out_path)) == ids, "converted record ids differ")


def import_template(template, out_path, out: Output) -> None:
    common(out, 0, template.dropped)
    results = json.loads(out.stdout)["results"]
    _require(results[0]["records"] == template.rows, "imported record count differs")
    code = template.jurisdiction.lower()
    expected = [f"{code}-{n:04d}" for n in range(1, template.rows + 1)]
    _require(canonical_ids(read_text(out_path)) == expected, "imported record ids differ")


class RdfChecker:
    """Re-parses RDF output with the independent oracle readers.

    Parsed triple sets are cached by output digest, since every round of a
    workload produces the same bytes.  The JSON-LD check compares with the
    Turtle output of the same round.
    """

    def __init__(self, oracle, corpus):
        self._oracle = oracle
        self._corpus = corpus
        self._cache: dict[tuple[str, bytes], frozenset] = {}
        self._turtle: frozenset | None = None

    def _parse(self, syntax: str, text: str) -> frozenset:
        key = (syntax, hashlib.sha256(text.encode("utf-8")).digest())
        if key not in self._cache:
            parse = self._oracle.parse_turtle if syntax == "turtle" else self._oracle.parse_jsonld
            self._cache[key] = frozenset(parse(text))
        return self._cache[key]

    def turtle(self, out: Output) -> None:
        self._turtle = None
        common(out, 0, self._corpus.register.dropped)
        self._turtle = self._parse("turtle", out.stdout)

    def jsonld(self, out_path, out: Output) -> None:
        common(out, 0, self._corpus.register.dropped)
        summary = json.loads(out.stdout)["results"][0]
        _require(summary["records"] == len(self._corpus.register.record_ids), "record count differs")
        triples = self._parse("jsonld", read_text(out_path))
        _require(len(triples) == summary["triples"], "triple count differs from --json")
        _require(self._turtle is not None, "no Turtle output to compare with")
        _require(triples == self._turtle, "Turtle and JSON-LD triple sets differ")
