"""Seeded inputs for the ropa benchmark.

The generator is modelled on the test suite's ``random_record`` but lives
here, so that a change to the tests never shifts the benchmark's inputs.  It
writes the CSV files itself instead of calling ``write_canonical``, so a
change to the writer cannot shift them either; it reads only the registry's
concept list, value schemas, seeded vocabularies and template column maps.

Besides the files it records what a correct program must make of them: the
concepts that survive parsing in each record, and how many values were
written in an invalid lexical form and so must be dropped with a warning.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

from ropa_dpv import Jurisdiction, default_config, load_registry

#: Small enough that every command runs about ten times in a run (see
#: ``run.timed_run``); parse time still grows with the square of it.
RECORDS = 200
TEMPLATES_PER_JURISDICTION = 4
TEMPLATE_ROWS = (10, 500)
#: Chance that a value of a checkable kind is written in an invalid form.
DROP_P = 0.02
#: Chance that a template cell is filled.
FILL_P = 0.5

_TERMS = ["marketing", "analytics", "billing", "support", "archival"]
# deliberately awkward text: separators, quotes, newlines, unicode, backslash
_TEXTS = [
    "plain text",
    "semi;colon",
    'quoted "text"',
    "line\nbreak",
    "comma, separated",
    "umläut",
    "back\\slash inside",
]
_CONTROLLERS = [
    "Sample Controller Ltd",
    'Acme "Data" GmbH',
    "Müller; Söhne KG",
    "Two\nLine Org",
    "Back\\slash SA",
]
_POOLS = {
    "TEXT": _TEXTS,
    "TEXT_LIST": _TEXTS,
    "DURATION": ["P1Y", "P6M", "P30D", "PT12H", "P2Y6M"],
    "COUNTRY_LIST": ["US", "JP", "BR", "AU", "IN", "CH"],
    "URI": ["https://example.com/doc/1", "https://example.com/doc/2", "urn:uuid:0f1e2d3c"],
    "DATE": ["2024-01-15", "2023-07-01", "2022-12-31"],
}
#: A lexical form the kind rejects, for every kind that rejects anything
#: besides the empty string.
_INVALID = {
    "BOOLEAN": "yes",
    "COUNTRY_LIST": "Utopia",
    "DURATION": "P1X",
    "URI": "not a uri",
    "DATE": "2024-02-30",
}


@dataclass(frozen=True)
class Register:
    """A canonical interchange file and what parsing it must yield."""

    path: Path
    record_ids: tuple[str, ...]
    #: Concepts left with at least one valid value, per record.
    populated: tuple[frozenset[str], ...]
    values: int
    dropped: int


@dataclass(frozen=True)
class TemplateFile:
    """A regulator-template file and what importing it must yield."""

    path: Path
    jurisdiction: str
    rows: int
    values: int
    dropped: int


@dataclass(frozen=True)
class Corpus:
    register: Register
    templates: tuple[TemplateFile, ...]
    mandatory: frozenset[str]
    profiles: dict[str, frozenset[str]]
    sha256: str

    @property
    def dropped(self) -> dict[str, tuple[int, int]]:
        """Values written in an invalid form, and values written, per input."""
        return {
            "register": (self.register.dropped, self.register.values),
            "template": (
                sum(t.dropped for t in self.templates),
                sum(t.values for t in self.templates),
            ),
        }


class _Values:
    """Draws lexical values for a concept; some in an invalid form."""

    def __init__(self, registry, rng: random.Random):
        self._registry = registry
        self._rng = rng
        self.written = 0
        self.dropped = 0

    def draw(self, concept_id: str) -> tuple[list[str], bool]:
        """Lexical values for one concept, and whether any of them is valid."""
        rng = self._rng
        schema = self._registry.concept(concept_id).value_schema
        kind = schema.kind.value
        if kind == "BOOLEAN":
            picked = [rng.choice(["true", "false"])]
        else:
            if kind in ("TERM", "TERM_LIST"):
                pool = sorted(self._registry.known_terms(schema.vocabulary)) or _TERMS
            else:
                pool = _POOLS[kind]
            count = rng.randint(1, 3) if schema.multiplicity.value == "MANY" else 1
            picked = []
            for _ in range(count):
                picked.append(rng.choice([c for c in pool if c not in picked] or pool))
        valid = 0
        for i in range(len(picked)):
            if kind in _INVALID and rng.random() < DROP_P:
                picked[i] = _INVALID[kind]
                self.dropped += 1
            else:
                valid += 1
        self.written += len(picked)
        return picked, valid > 0


def _csv_bytes(rows) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def _register(registry, rng: random.Random, records: int, path: Path) -> Register:
    all_ids = [c.id for c in registry.concepts]
    draw = _Values(registry, rng)
    rows = [("record_id", "concept_id", "value_index", "value_kind", "value")]
    record_ids, populated = [], []
    for n in range(records):
        record_id = f"pa-{n:04d}"
        created = (
            f"2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            f"T{rng.randint(0, 23):02d}:00:00+00:00"
        )
        rows.append((record_id, "_meta:controller_name", 0, "TEXT", rng.choice(_CONTROLLERS)))
        rows.append((record_id, "_meta:created", 0, "TEXT", created))
        chosen = set(rng.sample(all_ids, rng.randint(0, len(all_ids))))
        survived = set()
        for cid in all_ids:  # table order, as the canonical writer emits them
            if cid not in chosen:
                continue
            values, valid = draw.draw(cid)
            kind = registry.concept(cid).value_schema.kind.value
            rows.extend((record_id, cid, i, kind, v) for i, v in enumerate(values))
            if valid:
                survived.add(cid)
        record_ids.append(record_id)
        populated.append(frozenset(survived))
    path.write_bytes(_csv_bytes(rows))
    return Register(path, tuple(record_ids), tuple(populated), draw.written, draw.dropped)


def _template(registry, config, rng: random.Random, n_rows: int, path: Path) -> TemplateFile:
    draw = _Values(registry, rng)
    rows = [list(config.headers)]
    for _ in range(n_rows):
        row = []
        for cid in config.concept_ids:
            if rng.random() < FILL_P:
                values, _ = draw.draw(cid)
                row.append(";".join(v.replace(";", "\\;") for v in values))
            else:
                row.append("")
        rows.append(row)
    path.write_bytes(_csv_bytes(rows))
    return TemplateFile(path, config.jurisdiction.value, n_rows, draw.written, draw.dropped)


def template_sizes(count: int, rows: tuple[int, int] = TEMPLATE_ROWS) -> list[int]:
    """Row counts spaced evenly over ``rows``, so every seed has the same
    total; the seed decides which file gets which size."""
    low, high = rows
    return [low + round(i * (high - low) / (count - 1)) for i in range(count)]


def build(
    seed: int,
    workdir: Path,
    records: int = RECORDS,
    template_rows: tuple[int, int] = TEMPLATE_ROWS,
) -> Corpus:
    """Write the register and the template files for ``seed`` into ``workdir``."""
    registry = load_registry()
    rng = random.Random(seed)
    register = _register(registry, rng, records, workdir / "register.csv")
    jurisdictions = list(Jurisdiction)
    sizes = template_sizes(TEMPLATES_PER_JURISDICTION * len(jurisdictions), template_rows)
    rng.shuffle(sizes)
    templates = []
    for j_index, j in enumerate(jurisdictions):
        config = default_config(registry, j)
        for k in range(TEMPLATES_PER_JURISDICTION):
            size = sizes[j_index * TEMPLATES_PER_JURISDICTION + k]
            path = workdir / f"template-{j.value.lower()}-{k}.csv"
            templates.append(_template(registry, config, rng, size, path))
    digest = hashlib.sha256()
    for path in [register.path] + [t.path for t in templates]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return Corpus(
        register=register,
        templates=tuple(templates),
        mandatory=frozenset(registry.mandatory_concepts()),
        profiles={j.value: frozenset(p.concepts) for j, p in registry.profiles.items()},
        sha256=digest.hexdigest(),
    )
