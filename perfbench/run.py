"""Benchmark of the vassiliev library and CLI, run from the repository root.

    python3 perfbench/run.py --workload exact|integrals|cli --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  exact      exact-arithmetic routes (codes, skein, chords, lie) on a seeded corpus
  integrals  Morse embeddings and Kontsevich integrals on the shipped fixtures
  cli        a closed loop of one client running fresh `python -m vassiliev.cli`
             processes, mostly light commands and a minority of integrals

Every pass of `exact` and `integrals` is a fresh child interpreter, so the
skein memo and the hump-reference cache start cold; one child runs at a
time.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is
a JSON report with provenance, work counts and per-pass figures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from passes import DEFAULT_SEED, load_reference  # noqa: E402
from recorder import Recorder, self_times, tail  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "vassiliev", "__init__.py")
OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170.0

# Seconds one pass took when the benchmark was added, on a 2-vCPU Xeon VM.
# The pass count of a run is derived from --seconds with them, so every
# run of a workload does the same work whatever the load.
NOMINAL_PASS_S = {"exact": 4.6, "integrals": 3.8}
MIN_PASSES = 3
# CLI mix: 16 invocations per block, 9 light and 7 integral, so the
# median invocation is light and the tail (10 or more above it) integral.
CLI_PATTERN = "LILILILILILILILL"
NOMINAL_CLI_BLOCK_S = 19.0
MIN_CLI_BLOCKS = 2  # replays of the one seeded block
IMPORT_PROBES = 5

DATA = "src/vassiliev/data"
TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "O1+U2+O3-U4-O2+U1+O4-U3-"
SCHEMA_FOR_COMMAND = {
    "parse": "parse", "conway": "polynomial", "vassiliev-eval": "polynomial",
    "v2": "v2", "chords": "chords", "weights": "weights",
    "kontsevich": "coefficients", "compare": "compare",
}

LAYER_TIMES = (
    "codes.parse", "codes.canonical_key", "skein.v2", "skein.switch_check",
    "skein.conway", "chords.enumerate", "chords.four_term", "lie.weight_system",
    "lie.four_term_check", "fixtures.sample", "fixtures.load", "morse.embed",
    "kontsevich.linking", "kontsevich.deg2", "kontsevich.deg3", "kontsevich.hump",
    "cli.light_main", "cli.integral_main",
)
# per-layer count -> the pass whose counts carry it
LAYER_COUNTS = {
    "codes.crossings": "exact", "skein.v2_calls": "exact", "chords.diagrams": "exact",
    "chords.relations": "exact", "lie.weights": "exact", "morse.slabs": "integrals",
    "morse.strands": "integrals", "kontsevich.placements": "integrals",
    "kontsevich.quad_points": "integrals",
}


class Failures:
    """Attempted and failed operations of one run; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors:
                print(f"perfbench: FAILED {what}: {err}", file=sys.stderr)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, deadline):
    """Run one child to completion: (CompletedProcess or None, seconds, error)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        return None, 0.0, "no time left before the run deadline"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, "timed out"
    return proc, time.perf_counter() - t0, None


def run_pass(kind, seed, trace, deadline, failures, extra=()):
    """One fresh-interpreter pass; its ops count towards the run."""
    argv = [sys.executable, os.path.join(HERE, "passes.py"), kind, str(seed),
            "1" if trace else "0", *extra]
    load_before = os.getloadavg()
    proc, elapsed, err = spawn(argv, deadline)
    if proc is not None and proc.returncode != 0:
        err = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    if err:
        failures.add(f"{kind} pass", [err])
        return None
    out = json.loads(proc.stdout)
    for op in out["ops"]:
        failures.add(f"{kind} {op['name']}", op["errors"])
    out["child_s"] = elapsed
    out["loadavg"] = [load_before, os.getloadavg()]
    return out


def check_repeat(passes, failures, what):
    """Work counts must repeat exactly between passes on one seed."""
    counts = [p["counts"] for p in passes]
    failures.add(f"{what} work counts repeat",
                 [] if all(c == counts[0] for c in counts) else [f"counts differ: {counts}"])


def op_latencies(runs):
    """Each operation's latency over repeated runs of the same inputs: the
    upper quartile of its samples.

    On a shared VM the CPU drifts between speeds up to 1.4x apart for
    seconds to minutes, the slower one most of the time.  Per operation,
    the upper quartile keeps to that usual speed more often than a median
    or a minimum does.  Operations without library calls are left out.
    """
    return [statistics.quantiles([op["latency"] for op in ops], n=4, method="inclusive")[2]
            for ops in zip(*runs) if ops[0]["calls"]]


def library_run(workload, seed, seconds, failures, deadline):
    n = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    passes = []
    for _ in range(n):
        out = run_pass(workload, seed, False, deadline, failures)
        if out is None:
            break
        passes.append(out)
    if not passes:
        return None, {}
    check_repeat(passes, failures, workload)
    # Recorded counts are properties of the inputs; memo sizes may change with the program.
    want = load_reference()[workload]["counts"]
    got = {k: passes[0]["counts"].get(k) for k in want}
    failures.add(f"{workload} work counts match the recorded ones",
                 [] if got == want else [f"{got} != {want}"])
    latencies = op_latencies([p["ops"] for p in passes])
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(p["import_s"] for p in passes),
        "wall_s": sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
    }
    report = {"passes": len(passes), "latency_samples": len(latencies),
              "latency_tail_pct": tail_pct, "counts": passes[0]["counts"],
              "per_pass": [{k: p[k] for k in ("import_s", "wall_s", "child_s", "loadavg")}
                           for p in passes]}
    for key in ("sample_s", "v2_gap", "error_max", "placements", "observed"):
        if key in passes[0]:
            report[key] = passes[0][key]
    return metrics, report


# -- CLI workload --------------------------------------------------------------


def torus_gauss(n):
    """Gauss code of the standard positive diagram of T(2, n), n odd."""
    return "".join(f"{'OU'[p % 2]}{p % n + 1}+" for p in range(2 * n))


def cli_block(rng):
    """One block of the mix: every command kind, order and light inputs seeded."""
    def code():
        return torus_gauss(rng.choice((3, 5, 7, 9, 11)))

    light = [
        ["parse", code()], ["conway", code()], ["v2", code()], ["vassiliev-eval", code()],
        ["chords", rng.choice(("enumerate", "4t")), str(rng.choice((2, 3, 4)))],
        ["weights", "--algebra", rng.choice(("su2", "gl2", "gl3")),
         "--degree", str(rng.choice((2, 3)))],
        ["parse", code()], ["conway", code()], ["v2", code()],
    ]
    integral = [
        ["kontsevich", f"{DATA}/{name}.json", "--degree", "2"]
        for name in ("trefoil_2max", "trefoil_3max", "figure_eight", "hump")
    ] + [
        ["compare", f"{DATA}/trefoil_2max.json", TREFOIL],
        ["compare", f"{DATA}/trefoil_3max.json", TREFOIL],
        ["compare", f"{DATA}/figure_eight.json", FIGURE_EIGHT],
    ]
    rng.shuffle(light)
    rng.shuffle(integral)
    queues = {"L": light, "I": integral}
    return [("light" if c == "L" else "integral", queues[c].pop()) for c in CLI_PATTERN]


def check_cli_output(argv, proc, schemas):
    import jsonschema

    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, schemas[SCHEMA_FOR_COMMAND[argv[0]]])
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"invalid output: {str(exc)[:300]}"]
    if argv[0] == "v2":
        k = argv[1].count("O") // 2  # T(2, 2k+1) has 2k+1 crossings
        if payload["v2"] != math.comb(k + 1, 2):
            return [f"v2 {payload['v2']} != {math.comb(k + 1, 2)}"]
    if argv[0] == "compare" and not payload["within_tolerance"]:
        return [f"integral differs from skein v2 by {payload['difference']}"]
    return []


def load_schemas():
    schemas = {}
    for name in set(SCHEMA_FOR_COMMAND.values()):
        with open(os.path.join(SRC, "vassiliev", "schemas", f"{name}.schema.json")) as fh:
            schemas[name] = json.load(fh)
    return schemas


def cli_invocations(block, rec, failures, deadline, schemas):
    """Run one block sequentially; returns [(class, seconds)]."""
    out = []
    for cls, argv in block:
        with rec.span(f"cli.invocation.{cls}"):
            proc, elapsed, err = spawn([sys.executable, "-m", "vassiliev.cli", *argv], deadline)
        errors = [err] if err else check_cli_output(argv, proc, schemas)
        failures.add("cli " + " ".join(argv), errors)
        if err:
            break
        out.append((cls, elapsed))
    return out


def import_probes(n, seed, failures, deadline):
    probes = [run_pass("import", seed, False, deadline, failures) for _ in range(n)]
    return [p["import_s"] for p in probes if p is not None]


def cli_run(seed, seconds, failures, deadline):
    schemas = load_schemas()
    imports = import_probes(IMPORT_PROBES, seed, failures, deadline)
    block = cli_block(random.Random(seed))
    replays = max(MIN_CLI_BLOCKS, round(seconds / NOMINAL_CLI_BLOCK_S))
    rec = Recorder(f"cli-seed{seed}", False)
    done = [cli_invocations(block, rec, failures, deadline, schemas) for _ in range(replays)]
    latencies = [s for replay in done for _, s in replay]
    if not imports or not latencies:
        return None, {}
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(imports),
        "wall_s": sum(op_latencies([[{"latency": s, "calls": 1} for _, s in r] for r in done])),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
    }
    by_class = {c: [s for replay in done for k, s in replay if k == c] for c in ("light", "integral")}
    report = {"replays": len(done), "latency_samples": len(latencies), "latency_tail_pct": tail_pct,
              "import_probes": imports,
              "median_by_class": {c: statistics.median(v) for c, v in by_class.items() if v},
              "invocations": [[c, " ".join(a[:2]), s] for d in done
                              for (c, a), (_, s) in zip(block, d)]}
    return metrics, report


# -- traced run ----------------------------------------------------------------


def traced_run(workload, seed, failures, deadline):
    """One traced pass of `exact` and `integrals` and the CLI probes, so
    every layer is measured, plus an untraced and a traced pass of the
    named workload for the tracing overhead."""
    schemas = load_schemas()
    block = cli_block(random.Random(seed))
    untraced = {}
    if workload == "cli":
        done = cli_invocations(block, Recorder("untraced", False), failures, deadline, schemas)
        untraced["wall_s"] = sum(s for _, s in done)
    else:
        untraced = run_pass(workload, seed, False, deadline, failures) or {}

    spans, per_pass = [], {}
    for kind in ("exact", "integrals"):
        out = run_pass(kind, seed, True, deadline, failures)
        if out is not None:
            per_pass[kind] = out
            spans += out["spans"]
    if workload == "cli":
        rec = Recorder(f"cli-seed{seed}-traced", True)
        with rec.span("cli.block"):
            done = cli_invocations(block, rec, failures, deadline, schemas)
        spans += rec.spans
        per_pass["cli"] = {"wall_s": sum(s for _, s in done)}

    starts = []
    for _ in range(3):
        proc, elapsed, err = spawn([sys.executable, "-c", "pass"], deadline)
        failures.add("python -c pass", [err] if err else
                     ([] if proc.returncode == 0 else [f"exit {proc.returncode}"]))
        starts.append(elapsed)
    imports = import_probes(3, seed, failures, deadline)
    for cls in ("light", "integral"):
        argv = next(a for c, a in block if c == cls)
        out = run_pass("cli-main", seed, True, deadline, failures, extra=(cls, json.dumps(argv)))
        if out is not None:
            proc = subprocess.CompletedProcess(argv, out["rc"], out["stdout"], "")
            failures.add(f"cli main {' '.join(argv)}", check_cli_output(argv, proc, schemas))
            spans += out["spans"]

    own = self_times(spans)
    metrics = {f"{name}_s": own.get(name, 0.0) for name in LAYER_TIMES}
    exact = per_pass.get("exact", {})
    integrals = per_pass.get("integrals", {})
    for name, kind in LAYER_COUNTS.items():
        metrics[name] = per_pass.get(kind, {}).get("counts", {}).get(name, 0)
    metrics["skein.v2_calls_per_s"] = _rate(metrics["skein.v2_calls"], metrics["skein.v2_s"])
    metrics["kontsevich.placements_per_s"] = _rate(
        metrics["kontsevich.placements"],
        metrics["kontsevich.linking_s"] + metrics["kontsevich.deg2_s"] + metrics["kontsevich.deg3_s"])
    metrics["cli.python_start_s"] = statistics.median(starts)
    metrics["cli.import_s"] = statistics.median(imports) if imports else float("nan")
    metrics["v2_gap"] = integrals.get("v2_gap", float("nan"))
    metrics["error_max"] = integrals.get("error_max", float("nan"))
    metrics["trace.overhead_s"] = (per_pass.get(workload, {}).get("wall_s", float("nan"))
                                   - untraced.get("wall_s", float("nan")))
    report = {"untraced_wall_s": untraced.get("wall_s"),
              "traced_wall_s": {k: p.get("wall_s") for k, p in per_pass.items()},
              "spans": len(spans), "exact_counts": exact.get("counts"),
              "integrals_counts": integrals.get("counts")}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(spans, fh)
    return metrics, report


def _rate(count, seconds):
    return count / seconds if seconds > 0 else float("nan")


# -- entry point ---------------------------------------------------------------


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout, or a packed ref; src_sha256 still pins the code


def src_sha256():
    import hashlib

    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "vassiliev")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "jsonschema": version("jsonschema"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "seed": seed, "default_seed": DEFAULT_SEED}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact", "integrals", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like ^C, so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(PACKAGE):
        print(f"perfbench: {PACKAGE} not found; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    failures = Failures()
    report = {"workload": args.workload, "trace": args.trace, **provenance(args.seed),
              "loadavg_before": os.getloadavg()}
    if args.trace:
        metrics, detail = traced_run(args.workload, args.seed, failures, deadline)
    elif args.workload == "cli":
        metrics, detail = cli_run(args.seed, args.seconds, failures, deadline)
    else:
        metrics, detail = library_run(args.workload, args.seed, args.seconds, failures, deadline)
    if metrics is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    report.update(detail, loadavg_after=os.getloadavg(),
                  failed_frac=failures.failed / max(1, failures.attempted))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("v2_gap", "error_max"):
        return "1"
    if name == "kontsevich.quad_points":
        return "count-computed"  # placements x levels x steps, not counted at run time
    return "count"


if __name__ == "__main__":
    sys.exit(main())
