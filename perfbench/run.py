#!/usr/bin/env python3
"""saladbench benchmark: runs the saladbench CLI the way a user does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are generated from
``tools/make_toy_data.py`` with the workload seed; the program under test is
``src/saladbench``, run as ``python3 -m saladbench.cli`` in child processes.

Load model: closed loop, one client. A pass runs the workload's CLI commands
one after another, each as its own child process, because a user pays the
interpreter start, the imports and the cold caches on every command. The
harness starts no threads and at most one child at a time; four times a
second it stops the child to time a speed probe (see PROBE_REF_S).

With ``--trace 0`` every pass is untraced and the last line of standard output
carries the end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate; traced passes run each command through ``perfbench/tracer.py`` and
the last line carries the per-layer metrics, including the tracing overhead.

Every command's output is checked against references recorded from the seed
code (``perfbench/references.json``, written by ``record_references.py``). A
command that exits non-zero or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-out"
REFERENCES = BENCH_DIR / "references.json"

# References exist for this many seeds; --seed is reduced modulo it, so every
# run's outputs can be compared with what the seed code produced.
REF_SEEDS = 32
SETUP_REPS = 5
RUN_DEADLINE_S = 170.0
MITIGATION_TOLERANCE_PTS = 5.0

# Corpus sizes. "full" is what the benchmark measures; "tiny" is for the
# smoke test. A full pass takes 2-5 s on an undisturbed 2-core machine, so a
# 55 s run holds several passes even when the machine is twice as slow.
SIZES = {
    "full": {"mitigate-sentiment": {"n": 200},
             "evaluate-pairs": {"n": 600}},
    "tiny": {"mitigate-sentiment": {"n": 140},
             "evaluate-pairs": {"n": 60}},
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
              ("setup_s", "s"), ("ops_ok_frac", "ratio"))

CLI_LABELS = ("mitigate_invalid_class", "mitigate_threshold", "evaluate")
# Span names reported as total time ("<name>_s"); the ones that contain other
# spans are also reported as self time ("<name>_self_s").
SPAN_TOTALS = ("toyclf.train", "toyclf.fit_temperature", "providers.predict",
               "providers.saliency", "lexical.apply", "gradient.apply",
               "pbsmt.generate", "pbsmt.model1", "pbsmt.phrase_table",
               "pbsmt.lm_train",
               "mitigate.make_invalid", "mitigate.augment", "mitigate.finetune",
               "mitigate.threshold_search", "mitigate.evaluate",
               "metrics.compute", "corpus.load", "corpus.save",
               *(f"cli.{c}" for c in CLI_LABELS))
SPAN_SELF = ("mitigate.make_invalid", "mitigate.augment", "mitigate.finetune",
             *(f"cli.{c}" for c in CLI_LABELS))
COUNTS = ("toyclf.tokenize_calls", "toyclf.forward_calls",
          "providers.predict_examples", "providers.saliency_examples",
          "lexical.examples", "lexical.shuffle_exhausted", "gradient.examples",
          "pbsmt.lm_lookups", "pbsmt.phrase_entries",
          "mitigate.invalid_examples", "metrics.calls", "corpus.rows_loaded",
          "corpus.rows_skipped")
# Counted in the traced passes but derived from spans, not from the tracer.
SPAN_COUNTS = ("providers.saliency_calls", "pbsmt.decode_calls",
               "pbsmt.decode_retries")
QUALITY = ("ic_clean_accuracy_pct", "ic_invalid_detected_pct",
           "th_clean_accuracy_pct", "th_invalid_detected_pct")


def per_layer_names() -> list[str]:
    return ([f"{n}_s" for n in SPAN_TOTALS] + [f"{n}_self_s" for n in SPAN_SELF]
            + list(COUNTS) + list(SPAN_COUNTS)
            + ["pbsmt.decode_ms_p50", "pbsmt.decode_ms_p99"] + list(QUALITY)
            + ["trace.overhead_s", "trace.missing_hooks"])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


class CheckFailed(Exception):
    """A command's output is missing or malformed."""


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    label: str
    args: list[str]
    observe: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpora: Callable[[object, int, dict], dict]
    setup: Callable[[Path, dict], list]
    commands: Callable[[Path, Path, dict], list]


def _single(path):
    return ["--data", str(path), "--task", "single",
            "--labels", "negative,positive"]


def _pair(path):
    return ["--data", str(path), "--task", "pair", "--labels", "no,yes",
            "--default-label", "yes"]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise CheckFailed(f"cannot read {path.name}: {e}") from None


def observe_mitigation(out: Path):
    report = _read_json(out / "report.json")
    try:
        return [float(report["clean_accuracy"]), float(report["invalid_detected"])]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckFailed(f"report.json lacks mitigation figures: {e}") from None


def observe_evaluate(out: Path):
    """A digest of the report rows (transform, agreement, n, per-seed).

    Mean confidence is left out, and so are provenance and config.json,
    which embed the data path."""
    report = _read_json(out / "report.json")
    try:
        rows = [[r["transform"], r["agreement"], r["n"], r["per_seed"]]
                for r in report["rows"]]
    except (KeyError, TypeError) as e:
        raise CheckFailed(f"report.json rows malformed: {e}") from None
    return _digest(json.dumps(rows, sort_keys=True).encode())


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _mitigate_corpora(gen, seed, size):
    return {"sentiment.tsv": gen.make_sentiment(random.Random(seed), size["n"])}


def _mitigate_commands(work, out, size):
    data = _single(work / "sentiment.tsv")
    return [Command(f"mitigate_{s.replace('-', '_')}",
                    ["mitigate", *data, "--strategy", s, "--transforms", "all",
                     "--out", str(out / s)],
                    lambda d=out / s: observe_mitigation(d))
            for s in ("invalid-class", "threshold")]


def _evaluate_corpora(gen, seed, size):
    return {"pairs.tsv": gen.make_pairs(random.Random(seed), size["n"])}


def _evaluate_setup(work, size):
    return [["train", *_pair(work / "pairs.tsv"), "--out", str(work / "model")]]


def _evaluate_commands(work, out, size):
    return [Command("evaluate",
                    ["evaluate", *_pair(work / "pairs.tsv"),
                     "--model", str(work / "model" / "params.bin"),
                     "--transforms", "all", "--out", str(out / "eval")],
                    lambda: observe_evaluate(out / "eval"))]


WORKLOADS = {w.name: w for w in (
    Workload("mitigate-sentiment",
             "training-heavy: toyclf.train, fit_temperature and threshold search; "
             "also all PBSMT work (Model 1, phrase table, decode), a small share",
             _mitigate_corpora, lambda work, size: [], _mitigate_commands),
    Workload("evaluate-pairs",
             "inference only: batch forward, saliency and transforms, each row "
             "forwarded once; no training and no PBSMT",
             _evaluate_corpora, _evaluate_setup, _evaluate_commands),
)}


# ------------------------------------------------------------ input and env

def load_generator():
    path = ROOT / "tools" / "make_toy_data.py"
    spec = importlib.util.spec_from_file_location("make_toy_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tsv_bytes(rows) -> bytes:
    """The exact bytes make_toy_data.write produces."""
    lines = ["id\ttext_a\ttext_b\tlabel\n"] + ["\t".join(r) + "\n" for r in rows]
    return "".join(lines).encode("utf-8")


def generator_self_check(gen) -> list[str]:
    """Seeds 42/43 at n=200/300 must reproduce the bundled corpora, so that
    benchmark inputs and test inputs come from the same generator."""
    data = ROOT / "src" / "saladbench" / "data"
    errors = []
    for name, make, seed, n in (("toy_sentiment.tsv", gen.make_sentiment, 42, 200),
                                ("toy_pairs.tsv", gen.make_pairs, 43, 300)):
        if tsv_bytes(make(random.Random(seed), n)) != (data / name).read_bytes():
            errors.append(f"generator no longer reproduces {name}")
    return errors


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
                         if k in os.environ},
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# --------------------------------------------------------------- processes

# ----------------------------------------------------------- machine speed

# The machine is shared. Other tenants make the program up to twice as slow,
# in CPU time as much as in wall time, in bursts of a tenth of a second to a
# few seconds and in phases that last minutes, so ten runs of the same pass
# spread by more than a tenth. Code that chases pointers through big dicts,
# as the program does, slows the most. So every PROBE_EVERY_S of a child's run
# the child is stopped, and this process moves to the CPU the child last ran
# on and runs a probe that does such work (string keys looked up in a
# 40k-entry dict, in an order that defeats the fast caches); then the child is
# continued, and the stopped time is not counted. The wall times a run reports
# are scaled by PROBE_REF_S / (mean wall time of all the run's probes) and the
# CPU times by PROBE_REF_S / (mean CPU time of the probes): seconds at the
# speed at which one probe takes PROBE_REF_S, about its time on the
# undisturbed 2-core x86-64 machine the benchmark was built on. The probes
# sample the slowdown of the program's own CPU at its own moments, evenly over
# its run time, so their mean matches the mean slowdown that the run's mean
# pass time carries; probes taken only between commands, or on the other CPU,
# tracked it poorly. Set-up runs at another time than the passes, so it is
# scaled by its own probes, among them one by this process before it writes
# the corpora. A change to the program does not change the probe, so it shows
# in the scaled times in full.
PROBE_REF_S = 0.002
PROBE_CHUNKS = 6
PROBE_EVERY_S = 0.25
_PROBE_KEYS = [f"k{i * 7919 % 40009}" for i in range(40000)]
_PROBE_TABLE = {k: i for i, k in enumerate(_PROBE_KEYS)}


def probe() -> list[tuple[float, float]]:
    """Runs the probe PROBE_CHUNKS + 1 times; returns the CPU and wall seconds
    of each run but the first, which refills the caches the child used and so
    would depend on the program."""
    times = []
    for i in range(PROBE_CHUNKS + 1):
        cpu, wall = time.process_time(), time.perf_counter()
        total = 0
        for key in _PROBE_KEYS[::2]:
            total += _PROBE_TABLE.get(key, 0) & 7
        if i:
            times.append((time.process_time() - cpu, time.perf_counter() - wall))
    return times


def probe_means(probes: list[tuple[float, float]]) -> tuple[float, float]:
    """Mean CPU and wall seconds of the probes."""
    return (statistics.fmean(cpu for cpu, _ in probes),
            statistics.fmean(wall for _, wall in probes))


CPUS = os.sched_getaffinity(0)
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent():
    """Runs in the child before exec: the child gets SIGKILL if this process
    dies, so that a child stopped for a probe is never left behind."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def last_cpu(pid: int) -> int:
    """The CPU the process ran on last."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log_prefix: Path, deadline: float,
              probes: list[tuple[float, float]] | None) -> ChildResult:
    """Runs one child to completion (or kills it at the deadline) and returns
    its exit code, wall time and own resource usage. Unless `probes` is None,
    every PROBE_EVERY_S the child is stopped while the probe runs (see
    PROBE_REF_S); the probe times are appended to `probes` and the stopped
    time is left out of the wall time. Traced children are not stopped, so
    that their spans hold no stopped time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        stopped = 0.0
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                preexec_fn=_die_with_parent)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                wait = left if probes is None else min(PROBE_EVERY_S, left)
                if select.select([pidfd], [], [], wait)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if probes is None:
                    continue
                stop = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it ended before it stopped
                    break
                os.sched_setaffinity(0, {last_cpu(proc.pid)})
                try:
                    probes += probe()
                finally:
                    os.sched_setaffinity(0, CPUS)
                os.kill(proc.pid, signal.SIGCONT)
                stopped += time.perf_counter() - stop
        except BaseException:
            # interrupted (SIGINT, or SIGTERM via main): leave no child behind
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start - stopped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "saladbench.cli", *args]


def traced_argv(spans_out: Path, label: str, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_out), label,
            "--", *args]


def stderr_tail(log_prefix: Path, lines: int = 5) -> str:
    try:
        text = Path(f"{log_prefix}.err").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


# ------------------------------------------------------------------ a run

@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    observations: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Run:
    def __init__(self, workload: Workload, seed: int, size_name: str):
        self.workload = workload
        self.size_name = size_name
        self.size = SIZES[size_name][workload.name]
        self.ref_seed = seed % REF_SEEDS
        self.work = WORK / workload.name
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.errors: list[str] = []
        self.spans_log: list[dict] = []
        self.probes: list[tuple[float, float]] = []
        self.setup_probes: list[tuple[float, float]] = []

    def ref_key(self) -> str:
        return f"{self.workload.name}/{self.size_name}/{self.ref_seed}"

    def set_up(self, gen, reps: int = SETUP_REPS) -> list[float]:
        """Writes the corpora, warms the interpreter and file cache with one
        import of the package, and builds any model the pass needs. Done
        `reps` times; the passes use the last copy. Its probes are kept
        apart from the passes', as set-up runs at another time."""
        times = []
        for _ in range(reps):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            self.setup_probes += probe()  # this process writes the corpora
            start = time.perf_counter()
            corpora = self.workload.corpora(gen, self.ref_seed, self.size)
            for name, rows in corpora.items():
                (self.work / name).write_bytes(tsv_bytes(rows))
            elapsed = time.perf_counter() - start
            children = [[sys.executable, "-c",
                         "import saladbench.cli as c; print(c.__file__)"]]
            children += [cli_argv(a) for a in self.workload.setup(self.work, self.size)]
            for i, argv in enumerate(children):
                log = self.work / f"setup_{i}"
                res = run_child(argv, log, self.deadline, self.setup_probes)
                if res.exit_code != 0:
                    raise SystemExit(f"set-up command failed ({res.exit_code}): "
                                     f"{' '.join(argv[1:4])}: {stderr_tail(log)}")
                elapsed += res.wall_s
            times.append(elapsed)
            imported = Path(f"{self.work / 'setup_0'}.out").read_text().strip()
            if not Path(imported).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"saladbench imported from {imported}, "
                                 f"not from {ROOT / 'src'}")
        return times

    def run_pass(self, index: int, traced: bool, refs, first: dict) -> PassResult:
        """One timed pass; outputs are checked against `refs` unless it is
        None (when recording them)."""
        out = self.work / f"pass_{index}"
        out.mkdir()
        result = PassResult(traced)
        commands = self.workload.commands(self.work, out, self.size)
        codes = {}
        for cmd in commands:
            log = out / cmd.label
            argv = (traced_argv(out / f"spans_{cmd.label}.json", cmd.label, cmd.args)
                    if traced else cli_argv(cmd.args))
            child = run_child(argv, log, self.deadline,
                              None if traced else self.probes)
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
            codes[cmd.label] = (child.exit_code, log)

        for cmd in commands:
            result.attempted += 1
            code, log = codes[cmd.label]
            problem = None
            if code != 0:
                problem = f"exit code {code}: {stderr_tail(log)}"
            else:
                try:
                    observed = cmd.observe()
                    result.observations[cmd.label] = observed
                    if refs is not None:
                        problem = self.compare(cmd.label, observed, refs, first)
                except CheckFailed as e:
                    problem = str(e)
            if problem:
                result.failed += 1
                result.errors.append(f"pass {index} {cmd.label}: {problem}")
        if traced:
            docs = []
            for cmd in commands:
                try:
                    docs.append(_read_json(out / f"spans_{cmd.label}.json"))
                except CheckFailed as e:
                    result.errors.append(f"pass {index} {cmd.label}: no spans: {e}")
            result.layers = layer_figures(docs)
            self.spans_log.extend({"pass": index, **doc} for doc in docs)
        return result

    def compare(self, label: str, observed, refs: dict, first: dict):
        if label in first and observed != first[label]:
            return f"differs from the first pass of this run: {observed!r}"
        expected = refs.get(self.ref_key(), {}).get(label)
        if expected is None:
            return f"no reference recorded for {self.ref_key()} {label}"
        if label.startswith("mitigate_"):
            worse = [f"{o:.2f} < {e:.2f} - {MITIGATION_TOLERANCE_PTS}"
                     for o, e in zip(observed, expected)
                     if o < e - MITIGATION_TOLERANCE_PTS]
            return f"mitigation quality dropped: {worse}" if worse else None
        if observed != expected:
            return f"output differs from the reference: {observed!r} != {expected!r}"
        return None


def layer_figures(docs: list[dict]) -> dict:
    """Per-layer totals, self times and counts of one traced pass."""
    totals = dict.fromkeys(SPAN_TOTALS, 0.0)
    selfs = dict.fromkeys(SPAN_SELF, 0.0)
    counts = dict.fromkeys(COUNTS + SPAN_COUNTS, 0)
    decode_ms = []
    missing = set()
    for doc in docs:
        spans = doc["spans"]
        missing.update(doc["missing"])
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            nested = False
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if name in selfs:
                selfs[name] += (end - start) - covered[i]
            if name in totals and not nested:
                totals[name] += end - start
            if name == "providers.saliency":
                counts["providers.saliency_calls"] += 1
            elif name == "pbsmt.decode":
                if nested:
                    counts["pbsmt.decode_retries"] += 1
                else:
                    counts["pbsmt.decode_calls"] += 1
                    decode_ms.append(1000.0 * (end - start))
    figures = {f"{n}_s": v for n, v in totals.items()}
    figures.update({f"{n}_self_s": v for n, v in selfs.items()})
    figures.update(counts)
    figures["pbsmt.decode_ms_p50"] = percentile(decode_ms, 50)
    figures["pbsmt.decode_ms_p99"] = percentile(decode_ms, 99)
    figures["trace.missing_hooks"] = len(missing)
    return figures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            size_name: str, refs: dict) -> dict:
    """Set-up, then passes for `seconds`; returns everything measured."""
    gen = load_generator()
    run = Run(workload, seed, size_name)
    run.errors.extend(generator_self_check(gen))
    setup_times = run.set_up(gen)

    passes: list[PassResult] = []
    first: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run.run_pass(len(passes), traced, refs, first)
        for label, obs in p.observations.items():
            first.setdefault(label, obs)
        passes.append(p)
        print(f"pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"wall {p.wall_s:.3f} s, cpu {p.cpu_s:.3f} s, "
              f"rss {p.peak_rss_mb:.1f} MiB, failed {p.failed}/{p.attempted}",
              flush=True)
        # stop before a pass like the last would end past `seconds`
        elapsed = time.perf_counter() - start
        if elapsed + p.wall_s > seconds and (not trace or len(passes) >= 2):
            break
        if time.perf_counter() + 1.5 * p.wall_s > run.deadline:
            break
    if not run.probes:  # every child ended within PROBE_EVERY_S
        run.probes += probe()
    return {"run": run, "setup_times": setup_times, "passes": passes,
            "first": first}


def summarize(workload: Workload, seed: int, trace: bool, size_name: str,
              measured: dict) -> tuple[dict, dict]:
    run, passes = measured["run"], measured["passes"]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = list(run.errors) + [e for p in passes for e in p.errors]

    # Means, not medians, over the passes: a pass's time carries the slowdown
    # of its moment in full, and only the mean over the run matches the mean
    # of the probes (see PROBE_REF_S).
    probe_cpu, probe_wall = probe_means(run.probes)
    wall_scale, cpu_scale = PROBE_REF_S / probe_wall, PROBE_REF_S / probe_cpu
    setup_probe_wall = probe_means(run.setup_probes)[1]
    as_measured = {
        "wall_s": statistics.fmean(p.wall_s for p in plain),
        "cpu_s": statistics.fmean(p.cpu_s for p in plain),
        "setup_s": statistics.median(measured["setup_times"]),
        "probe_wall_s": probe_wall,
        "probe_cpu_s": probe_cpu,
        "setup_probe_wall_s": setup_probe_wall,
    }
    end_to_end = {
        "wall_s": as_measured["wall_s"] * wall_scale,
        "cpu_s": as_measured["cpu_s"] * cpu_scale,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "setup_s": as_measured["setup_s"] * PROBE_REF_S / setup_probe_wall,
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    quality = dict.fromkeys(QUALITY, 0.0)
    first = measured["first"]
    for prefix, label in (("ic", "mitigate_invalid_class"),
                          ("th", "mitigate_threshold")):
        if label in first:
            quality[f"{prefix}_clean_accuracy_pct"] = first[label][0]
            quality[f"{prefix}_invalid_detected_pct"] = first[label][1]

    per_layer = {}
    if traced:
        names = [n for n in per_layer_names() if n in traced[0].layers]
        for name in names:
            values = [p.layers[name] for p in traced]
            if unit_of(name) == "count":
                if len(set(values)) > 1:
                    errors.append(f"count {name} differs between traced passes: "
                                  f"{values}")
                per_layer[name] = values[0]
            else:
                per_layer[name] = statistics.median(values)
        per_layer.update(quality)
        per_layer["trace.overhead_s"] = (
            statistics.fmean(p.wall_s for p in traced) * wall_scale
            - end_to_end["wall_s"])

    metrics = per_layer if trace else end_to_end
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of_metric(k)}
                          for k, v in metrics.items()}}
    detail = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "reference_seed": run.ref_seed, "size": size_name,
        "sizes": run.size, "environment": environment(),
        "setup_s_reps": measured["setup_times"],
        "probe_cpu_wall_s": run.probes,
        "setup_probe_cpu_wall_s": run.setup_probes,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "peak_rss_mb": p.peak_rss_mb, "failed": p.failed,
                    "attempted": p.attempted} for p in passes],
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "end_to_end": end_to_end, "as_measured": as_measured, "quality": quality,
        "per_layer": per_layer,
        "errors": errors,
    }
    return result, detail


def unit_of_metric(name: str) -> str:
    return dict(END_TO_END).get(name) or unit_of(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="corpus sizes; 'tiny' is for the smoke test and "
                             "has references for seed 0 only")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [ROOT / "src" / "saladbench" / "cli.py",
              ROOT / "tools" / "make_toy_data.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a saladbench source checkout (missing {', '.join(absent)})",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    measured = execute(workload, args.seed, args.seconds, bool(args.trace),
                       args.size, load_references())
    result, detail = summarize(workload, args.seed, bool(args.trace), args.size,
                               measured)
    out_dir = WORK / workload.name
    (out_dir / "result.json").write_text(
        json.dumps({**detail, "result": result}, indent=2), encoding="utf-8")
    if measured["run"].spans_log:
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as f:
            for doc in measured["run"].spans_log:
                f.write(json.dumps(doc) + "\n")

    for error in detail["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print("env: " + json.dumps(detail["environment"], sort_keys=True))
    print(f"{workload.name} seed {args.seed} (reference seed {detail['reference_seed']}), "
          f"sizes {detail['sizes']}: {detail['untraced_passes']} untraced and "
          f"{detail['traced_passes']} traced passes; means over untraced passes, "
          f"set-up median of {SETUP_REPS}")
    for name, value in detail["end_to_end"].items():
        print(f"  {name} = {value:.4f} {unit_of_metric(name)}")
    measured_line = ", ".join(f"{k} {v:.4f}" for k, v in detail["as_measured"].items())
    print(f"  times above are at the reference speed (probe {PROBE_REF_S} s); "
          f"as measured: {measured_line}")
    if workload.name == "mitigate-sentiment":
        for name, value in detail["quality"].items():
            print(f"  {name} = {value:.2f} %")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
