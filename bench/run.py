"""exchgraph benchmark: one closed-loop client driving the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an exchgraph checkout (the package is imported from
``src/``).  Each command of the workload runs as ``exchgraph.cli.main`` in a
fresh interpreter, one after another; a pass is one run of the whole
sequence, and passes repeat at the same seed for about S seconds.
Every output is checked (see ``checks.py``), and a later pass must reproduce
the first pass's output files byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the untraced passes are followed by one traced pass and
the last line carries the per-layer metrics.  Full results with provenance
go to ``bench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
RESULTS_DIR = HERE / "results"
DEFAULT_SEED = 1
IMPORTTIME_RUNS = 3
# commands whose median time is reported on its own (motifs and report take
# tens of milliseconds beyond the import, so they count only toward the totals)
TIMED_COMMANDS = ("sample", "degrees", "gf2", "hub", "mc")
ANALYTIC_COMMANDS = ("degrees", "motifs", "gf2", "report", "hub")
SETUP_FAMILIES = {
    "setup.numpy_s": lambda name: name == "numpy" or name.startswith("numpy."),
    "setup.scipy_stats_s": lambda name: name.startswith("scipy.stats"),
    "setup.scipy_integrate_s": lambda name: name.startswith("scipy.integrate"),
    "setup.scipy_other_s": lambda name: (
        (name == "scipy" or name.startswith("scipy."))
        and not name.startswith(("scipy.stats", "scipy.integrate"))),
    "setup.exchgraph_s": lambda name: name == "exchgraph" or name.startswith("exchgraph."),
}


class Client:
    """Runs the CLI commands of one workload and checks their outputs."""

    def __init__(self, workload, seed: int, src: Path, work: Path, reference):
        self.workload = workload
        self.src = src
        self.work = work
        self.reference = reference
        self.configs = workload.build_configs(seed)
        for name, config in self.configs.items():
            (work / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        self.first_hashes: dict = {}
        self.attempted = 0
        self.failures: list = []

    def _invoke(self, command: str, config: str, extra, out: Path, trace: bool):
        sidecar = self.work / "sidecar.json"
        sidecar.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(self.src), str(sidecar),
                "1" if trace else "0", "--", command,
                "--config", str(self.work / f"{config}.json"), "--out", str(out),
                *extra]
        with open(self.work / "child.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.work)
            try:
                # per-child rusage: the peak RSS of this process alone
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
        return {"command": command, "exit": proc.returncode, "s": elapsed, "edges": 0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0,
                "import_s": side.get("import_s"),
                "import_cpu_s": side.get("import_cpu_s"), "spans": side.get("spans")}

    def _check(self, index: int, command: str, config: str, out: Path, rec) -> list:
        if command == "mc" and rec["exit"] in (0, 2) and (out / "mc.json").exists():
            errors = checks.check_mc(out, rec["exit"])
        elif rec["exit"] != 0:
            log = (self.work / "child.log").read_text(errors="replace")
            return [f"exit code {rec['exit']}: {log.strip()[-400:]}"]
        elif command == "sample":
            errors, rec["edges"] = checks.check_sample(self.configs[config], out)
        elif command in ANALYTIC_COMMANDS and self.reference is not None:
            errors = checks.check_analytic(command, out, self.reference)
        else:
            errors = []
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
        first = self.first_hashes.setdefault(index, hashes)
        if hashes != first:
            errors.append("output files differ from the first pass at this seed")
        return errors

    def run_pass(self, trace: bool = False) -> list:
        records = []
        for index, (command, config, extra) in enumerate(self.workload.commands):
            out = self.work / "out" / f"{index}-{command}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            rec = self._invoke(command, config, extra, out, trace)
            self.attempted += 1
            try:
                errors = self._check(index, command, config, out, rec)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"output check raised {exc!r}"]
            rec["failed"] = bool(errors)
            for message in errors:
                self.failures.append(f"{command}: {message}")
                print(f"FAIL {command}: {message}", file=sys.stderr)
            records.append(rec)
            shutil.rmtree(out, ignore_errors=True)
        return records


def _median_known(values) -> float:
    """Median of the values a child reported (a crashed child reports none)."""
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else math.nan


def _pass_median(passes: list, key: str, reduce=sum, command=None) -> float:
    """Median over passes of ``reduce`` over the chosen records' ``key``."""
    return statistics.median(
        reduce(r[key] for r in records if command in (None, r["command"]))
        for records in passes)


def end_to_end(passes: list) -> tuple[dict, dict]:
    """Untraced metrics: (the BENCHMARK.json ones, the printed-only ones).

    Times in BENCHMARK.json are CPU times (user + system, from the per-child
    rusage): on a shared host, hypervisor steal makes wall time swing by
    tens of percent between runs while CPU time holds within a few.
    """
    flat = [rec for records in passes for rec in records]
    metrics = {
        "cpu_s": (_pass_median(passes, "cpu_s"), "s"),
        "peak_rss_mib": (_pass_median(passes, "rss_mib", max), "MiB"),
        "setup_s": (_median_known(r["import_cpu_s"] for r in flat), "s"),
    }
    extra = {
        "wall_s": (_pass_median(passes, "s"), "s"),
        "setup_wall_s": (_median_known(r["import_s"] for r in flat), "s"),
    }
    commands = {r["command"] for r in passes[0]}
    for command in TIMED_COMMANDS:
        if command in commands:
            extra[f"{command}_s"] = (_pass_median(passes, "s", command=command), "s")
            extra[f"{command}_cpu_s"] = (
                _pass_median(passes, "cpu_s", command=command), "s")
    if "sample" in commands:
        edges = _pass_median(passes, "edges", command="sample")
        extra["edges_per_s"] = (edges / extra["sample_s"][0], "1/s")
    return metrics, extra


def import_breakdown(src: Path, work: Path) -> dict:
    """Self import time of each module family, median over fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import exchgraph.cli"
    samples = {name: [] for name in SETUP_FAMILIES}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, cwd=work, check=True)
        totals = dict.fromkeys(SETUP_FAMILIES, 0.0)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:   # the column header line
                continue
            module = parts[2].strip()
            for name, member in SETUP_FAMILIES.items():
                if member(module):
                    totals[name] += self_us * 1e-6
        for name, value in totals.items():
            samples[name].append(value)
    return {name: (statistics.median(v), "s") for name, v in samples.items()}


def per_layer(traced: list, untraced_cpu: float, workload) -> tuple[dict, list]:
    spans = dict.fromkeys(tracer.metric_names(), 0)
    for rec in traced:
        for name, value in (rec["spans"] or {}).items():
            spans[name] += value
    errors = [f"trace: expected span {name} recorded no calls"
              for name in workload.expected_spans
              if spans[f"{tracer.span_name(name)}.calls"] == 0]
    errors += [f"trace: {name} is negative ({value})"
               for name, value in spans.items() if name.endswith("self_s") and value < 0]
    metrics = {}
    for name, value in spans.items():
        kind = name.rsplit(".", 1)[1]
        unit = "s" if kind in ("s", "self_s") else "bytes" if kind == "bytes" else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (sum(r["cpu_s"] for r in traced) - untraced_cpu, "s")
    return metrics, errors


def provenance(seed: int, root: Path, src: Path) -> dict:
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((src / "exchgraph").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "note": "reference numbers in README.md come from a 2-core sandbox",
    }


def record_reference(client: Client) -> None:
    """Write the analytic part of each report at this seed as the reference."""
    reference = {}
    for index, (command, config, extra) in enumerate(client.workload.commands):
        if command not in ANALYTIC_COMMANDS:
            continue
        out = client.work / "out" / f"{index}-{command}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = client._invoke(command, config, extra, out, trace=False)
        if rec["exit"] != 0:
            raise SystemExit(f"{command} exited {rec['exit']}; no reference written")
        report = json.loads((out / f"{command}.json").read_text(encoding="utf-8"))
        reference[command] = checks.analytic_part(command, report)
    if reference:
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{client.workload.name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write reference/<workload>.json from one pass")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "exchgraph" / "cli.py").is_file():
        print(f"bench: no exchgraph sources under {src}; run from the root "
              "of an exchgraph checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = None
    ref_path = REFERENCE_DIR / f"{workload.name}.json"
    if ref_path.is_file() and not args.record_reference:
        reference = json.loads(ref_path.read_text(encoding="utf-8"))
    elif any(c in ANALYTIC_COMMANDS for c, _, _ in workload.commands) \
            and not args.record_reference:
        print(f"bench: missing reference {ref_path}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        client = Client(workload, args.seed, src, work, reference)
        if args.record_reference:
            record_reference(client)
            return 0
        # Passes run while the run would end nearer to --seconds with one
        # more pass than without it.
        passes, pass_walls = [], []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start
                             + statistics.median(pass_walls) / 2 < args.seconds):
            began = time.perf_counter()
            passes.append(client.run_pass())
            pass_walls.append(time.perf_counter() - began)
        metrics, extra = end_to_end(passes)
        layer = {}
        if args.trace:
            passes_run = passes + [client.run_pass(trace=True)]
            layer, errors = per_layer(passes_run[-1], metrics["cpu_s"][0], workload)
            layer.update(import_breakdown(src, work))
            for message in errors:
                client.failures.append(message)
                print(f"FAIL {message}", file=sys.stderr)
        else:
            passes_run = passes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(rec["failed"] for records in passes_run for rec in records)
    extra["fail_ratio"] = (failed / client.attempted, "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"passes {len(passes)}, invocations {client.attempted}, "
          f"failed {failed}, workload {workload.name}, seed {args.seed}")
    prov = provenance(args.seed, root, src)
    print("provenance " + json.dumps(prov, sort_keys=True))

    def as_json(values: dict) -> dict:
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    result = {"correct": failed == 0 and not client.failures,
              "attempted": client.attempted, "failed": failed,
              "metrics": as_json(layer if args.trace else metrics)}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": workload.name, "passes": len(passes),
                    "failures": client.failures, "provenance": prov,
                    "pass_records": [[{k: r[k] for k in ("command", "exit", "s", "cpu_s",
                                                          "rss_mib", "import_cpu_s")}
                                      for r in records] for records in passes_run],
                    "metrics": as_json({**metrics, **extra, **layer})},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
