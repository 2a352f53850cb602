"""The ropa benchmark.

Usage, from the root of a checkout:

    python3 ropabench/run.py --workload register --seed 1 --seconds 55 --trace 0

It writes seeded inputs into a scratch directory under ``ropabench/``, then
drives the real CLI: one child process per command, started only after the
previous one ended (a closed loop with one client), repeating the workload's
command list while the next round still fits in ``--seconds``.  Every
command's output is checked (see ``checks.py``).  Reported times are scaled
by a reference job run between commands (see ``timed_run``).  With
``--trace 1`` it instead replays the command list, and a small probe (see
``probe``), in-process through ``cli_main``, alternating untraced and traced
rounds, and reports per-layer metrics from spans around each layer's
functions (see ``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, give the inputs' SHA-256 and the per-command figures.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import spans
from checks import Output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "rdf_oracle.py"

#: ``python -m ropa_dpv.cli`` exits 0 without doing anything (the module has
#: no ``__main__`` block) and no ``ropa`` script need be installed, so each
#: child calls the console-script target explicitly.
LAUNCH = "from ropa_dpv.cli import main; main()"
#: What every invocation pays before it reads its input.
SETUP = "import ropa_dpv.cli as cli; cli.load_registry()"
#: A fixed pure-Python job that gauges the machine's speed (see timed_run).
REFERENCE = BENCH_DIR / "reference.py"
#: The reference job's wall time on the machine the reported times are
#: scaled to: about its time on a quiet 2-vCPU Xeon VM with Python 3.11.
REFERENCE_S = 0.15
#: Records in the probe register that the traced run replays beside each
#: workload (see traced_run).
PROBE_RECORDS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_LAYER_TIMES = [
    "registry.load_registry.s",
    "records.from_lexical.s",
    "template_io.parse_canonical.self_s",
    "template_io.import_template.self_s",
    "template_io.write_canonical.s",
    "template_io.convert.s",
    "template_io.default_config.s",
    "validation.validate_article30.s",
    "validation.validate_against_profile.s",
    "validation.gap_matrix.self_s",
    "queries.run_query.self_s",
    "rdf_export.records_to_graph.s",
    "rdf_export.serialize_turtle.s",
    "rdf_export.serialize_jsonld.s",
]
_LAYER_COUNTS = [
    "registry.read_verified.calls",
    "records.from_lexical.calls",
    "records.from_lexical.failed",
    "template_io.parse_canonical.rows",
    "template_io.parse_canonical.records",
    "template_io.parse_canonical.warnings",
    "template_io.import_template.rows",
    "template_io.import_template.warnings",
    "template_io.convert.lost",
    "template_io.default_config.calls",
    "validation.validate_article30.calls",
    "validation.validate_against_profile.calls",
    "validation.gap_matrix.calls",
    "validation.findings",
    "queries.run_query.hits",
    "rdf_export.records_to_graph.triples",
]
_LAYER_BYTES = [
    "template_io.write_canonical.bytes",
    "rdf_export.serialize_turtle.bytes",
    "rdf_export.serialize_jsonld.bytes",
    "cli.stdout_bytes",
]
CLI_COMMANDS = ("validate", "query", "export", "convert", "import")
PER_LAYER = {
    **{name: "s" for name in _LAYER_TIMES},
    **{f"cli.{c}.{f}": "s" for c in CLI_COMMANDS for f in ("s", "self_s")},
    **{name: "count" for name in _LAYER_COUNTS},
    **{name: "bytes" for name in _LAYER_BYTES},
    "validation.gap_matrix.profile_calls_per_call": "count",
    "trace.overhead_frac": "frac",
}
_SPAN_FIELDS = ("s", "self_s", "calls", "failed")


@dataclass(frozen=True)
class Command:
    metric: str  # per-command latency name, e.g. ``export_turtle_s``
    argv: tuple[str, ...]
    units: int  # input records or template rows it processes
    check: Callable

    @property
    def name(self) -> str:
        return self.argv[0]


def register(corpus, rdf, work: Path) -> list[Command]:
    """The audit commands, then the publish commands, on one register."""
    n, inp = len(corpus.register.record_ids), ("--input", str(corpus.register.path))
    jsonld, converted = work / "register.jsonld", work / "converted.csv"
    return [
        Command("validate_s", ("validate", *inp, "--article30"), n,
                partial(checks.validate_text, corpus)),
        Command("validate_s", ("validate", *inp, "--profile", "BE", "--json"), n,
                partial(checks.validate_json, corpus)),
        Command("query_s", ("query", *inp, "--rule", "JURISDICTION_READINESS"), n,
                partial(checks.query_readiness, corpus)),
        Command("query_s", ("query", *inp, "--rule", "TRANSFER_WITHOUT_SAFEGUARDS"), n,
                partial(checks.query_transfer, corpus)),
        Command("export_turtle_s", ("export", *inp, "--format", "turtle"), n, rdf.turtle),
        Command("export_jsonld_s",
                ("export", *inp, "--format", "jsonld", "--out", str(jsonld), "--json"), n,
                partial(rdf.jsonld, jsonld)),
        Command("convert_s",
                ("convert", *inp, "--from", "UK", "--to", "CY", "--out", str(converted), "--json"),
                n, partial(checks.convert, corpus, "CY", converted)),
    ]


def intake(corpus, rdf, work: Path) -> list[Command]:
    commands = []
    for template in corpus.templates:
        out = work / f"{template.path.stem}.out.csv"
        argv = ("import", "--input", str(template.path), "--template", template.jurisdiction,
                "--out", str(out), "--json")
        commands.append(
            Command("import_s", argv, template.rows, partial(checks.import_template, template, out))
        )
    return commands


WORKLOADS = {"register": register, "intake": intake}


# -- timed run: one child process per command ------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    # Children cache bytecode, as an installed package would, but under the
    # scratch directory.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    return env


def spawn(args, env, stdout, stderr):
    """Run ``python args...`` to the end; its wall time, exit status and
    resource usage.  The child is killed after CHILD_TIMEOUT_S."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=env, cwd=ROOT
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_child(argv, work: Path, env):
    """Run one CLI command; its wall time, peak RSS in KiB and output."""
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        wall, code, usage = spawn(["-c", LAUNCH, *argv], env, out, err)
    output = Output(
        code,
        (work / "stdout").read_text("utf-8", errors="replace"),
        (work / "stderr").read_text("utf-8", errors="replace"),
    )
    return wall, usage.ru_maxrss, output


def _quiet(args, env) -> float:
    wall, code, _ = spawn(args, env, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"ropabench: python {' '.join(args)} exited with status {code}")
    return wall


def setup_time(env) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the
    registry."""
    return _quiet(["-c", SETUP], env)


def reference_time() -> float:
    """Wall time of the reference job, isolated from the environment."""
    return _quiet(["-I", "-S", str(REFERENCE)], None)


def scale(samples, refs) -> list[float]:
    """Each ``(wall, k)`` sample over the mean of the reference times
    ``refs[k]`` and ``refs[k + 1]`` taken around it, times REFERENCE_S."""
    return [2 * REFERENCE_S * wall / (refs[k] + refs[k + 1]) for wall, k in samples]


def timed_run(commands, seconds: float, work: Path, report) -> dict:
    """Closed loop over ``commands``; end-to-end metrics with times scaled
    by the reference job.

    The machine's speed swings by a third over seconds to minutes, with the
    reference job and the program alike, so each time sample is divided by
    the mean of the reference times taken just before and just after it and
    multiplied by REFERENCE_S.  A change to the program moves the scaled
    times in full; a swing of the machine's speed mostly cancels.  The raw
    figures are printed on the ``#`` lines.
    """
    env = child_env()
    setup_time(env)  # fills the page and bytecode caches; not counted
    refs = [reference_time()]
    # samples are (wall time, index of the reference time taken before it)
    walls = [[] for _ in commands]
    setup = []
    peak_kib = 0
    start = perf_counter()
    while True:
        round_wall = 0.0
        for i, command in enumerate(commands):
            wall, kib, output = run_child(command.argv, work, env)
            walls[i].append((wall, len(refs) - 1))
            peak_kib = max(peak_kib, kib)
            report.outcome(command, checks.failure(command.check, output))
            # Set-up and the reference are sampled after every command, so
            # that each command sits between two reference samples taken
            # less than a couple of seconds apart.
            setup.append((setup_time(env), len(refs) - 1))
            refs.append(reference_time())
            round_wall += wall + setup[-1][0] + refs[-1]
        if perf_counter() - start + round_wall > seconds:
            break
    refs.append(reference_time())
    scaled = partial(scale, refs=refs)
    by_metric = defaultdict(list)
    for command, samples in zip(commands, walls):
        by_metric[command.metric].extend(samples)
    for metric, samples in [*by_metric.items(), ("setup_s", setup)]:
        report.describe(metric, scaled(samples), "s")
        report.describe(f"raw_{metric}", [wall for wall, _ in samples], "s")
    report.describe("reference_s", refs, "s")
    round_s = sum(statistics.median(scaled(samples)) for samples in walls)
    raw_round_s = sum(statistics.median(wall for wall, _ in samples) for samples in walls)
    units = sum(c.units for c in commands)
    report.note(f"raw_records_per_s {units / raw_round_s:.4f} (at each command's median latency)")
    # Throughput of one round at each command's median latency, so that a
    # slow spell moves it less than a plain total would.
    return {
        "setup_s": statistics.median(scaled(setup)),
        "records_per_s": units / round_s,
        "peak_rss_mb": peak_kib / 1024,
    }


# -- traced run: in-process replay through cli_main ---------------------------------


def replay(cli_main, command, tracer=None):
    """Run one command in-process; its wall time and output."""
    run = cli_main if tracer is None else spans.wrap(tracer, f"cli.{command.name}", cli_main)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        code = run(list(command.argv))
        wall = perf_counter() - start
    return wall, Output(code, stdout.getvalue(), stderr.getvalue())


def traced_round(cli_main, commands, report) -> tuple[float, dict]:
    totals: dict[str, Counter] = defaultdict(Counter)
    counts: Counter = Counter()
    round_wall = 0.0
    for command in commands:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            wall, output = replay(cli_main, command, tracer)
        round_wall += wall
        stats = spans.span_stats(tracer.spans)
        why = checks.failure(command.check, output)
        self_sum = sum(entry["self_s"] for entry in stats.values())
        if why is None and abs(self_sum - wall) > 1e-3 + 1e-3 * wall:
            why = f"span self times sum to {self_sum:.6f} s, wall time {wall:.6f} s"
        report.outcome(command, why)
        for name, entry in stats.items():
            totals[name].update(entry)
        counts.update(tracer.counts)
        counts["cli.stdout_bytes"] += len(output.stdout.encode("utf-8"))
        names = {span[0]: span[1] for span in tracer.spans}
        counts["validation.gap_matrix.profile_calls"] += sum(
            1
            for _, name, _, _, parent, _ in tracer.spans
            if name == "validation.validate_against_profile"
            and names.get(parent) == "validation.gap_matrix"
        )
    metrics = {}
    for name in PER_LAYER:
        span, field = name.rsplit(".", 1)
        if field in _SPAN_FIELDS and name not in counts:
            metrics[name] = totals[span][field]
        else:
            metrics[name] = counts[name]
    gap_calls = totals["validation.gap_matrix"]["calls"]
    metrics["validation.gap_matrix.profile_calls_per_call"] = (
        counts["validation.gap_matrix.profile_calls"] / gap_calls if gap_calls else 0
    )
    return round_wall, metrics


def probe(seed: int, work: Path, oracle) -> list[Command]:
    """Every subcommand on a 3-record register and a 1-row template.

    The traced run replays these beside each workload's own commands, so
    that every layer records spans on both workloads: on intake, the parse,
    validation, query and RDF figures are the probe's alone.
    """
    import corpus

    inputs = corpus.build(seed, work, records=PROBE_RECORDS, template_rows=(1, 1))
    return register(inputs, checks.RdfChecker(oracle, inputs), work) + intake(inputs, None, work)[:1]


def traced_run(commands, seconds: float, report) -> dict:
    from ropa_dpv.cli import cli_main

    plain, traced, rounds = [], [], []
    start = perf_counter()
    while True:
        wall = 0.0
        for command in commands:
            took, output = replay(cli_main, command)
            wall += took
            report.outcome(command, checks.failure(command.check, output))
        plain.append(wall)
        wall, metrics = traced_round(cli_main, commands, report)
        traced.append(wall)
        rounds.append(metrics)
        if perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    report.note(f"in-process round_s untraced {statistics.median(plain):.4f} "
                f"traced {statistics.median(traced):.4f} (rounds {len(plain)})")
    return metrics


# -- reporting ----------------------------------------------------------------------


class Report:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def note(self, text: str) -> None:
        print(f"# {text}", flush=True)

    def outcome(self, command: Command, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{' '.join(command.argv[:1] + command.argv[3:])}: {why}")
            print(f"ropabench: check failed: {self.failures[-1]}", file=sys.stderr)

    def describe(self, metric: str, samples: list[float], unit: str) -> None:
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        self.note(f"{metric} {statistics.median(samples):.4f} {unit} "
                  f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, n {len(samples)})")

    def result(self, metrics: dict, units: dict) -> str:
        failed = len(self.failures)
        self.note(f"failed_frac {failed / self.attempted:.4f} ({failed} of {self.attempted})")
        return json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        })


def load_oracle():
    spec = importlib.util.spec_from_file_location("rdf_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ropa_dpv" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"ropabench: {ROOT} holds no ropa_dpv source tree and RDF oracle; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = Report()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    # Bytecode caches go to the scratch directory as well, so that a run
    # writes nothing outside the benchmark's own directory.
    sys.pycache_prefix = str(work / "pycache")
    try:
        import corpus

        inputs = corpus.build(args.seed, work)
        report.note(f"workload {args.workload} seed {args.seed} inputs_sha256 {inputs.sha256}")
        for name, (dropped, values) in inputs.dropped.items():
            report.note(f"{name}_dropped_share {dropped / values:.4f} "
                        f"({dropped} of {values} values dropped with a warning)")
        oracle = load_oracle()
        rdf = checks.RdfChecker(oracle, inputs)
        commands = WORKLOADS[args.workload](inputs, rdf, work)
        if args.trace:
            (work / "probe").mkdir()
            commands += probe(args.seed, work / "probe", oracle)
            line = report.result(traced_run(commands, args.seconds, report), PER_LAYER)
        else:
            line = report.result(timed_run(commands, args.seconds, work, report), END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
