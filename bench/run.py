"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Every sample is a fresh interpreter running ``workloads.py`` on the
checkout's ``src/`` (the process-wide caches would turn a repeat inside one
interpreter into cache hits).  One discarded warm-up sample compiles the
bytecode first.  Samples run one after another until ``--seconds`` is
spent, with at least MIN_SAMPLES of each kind; a set-up-only sample
follows each one, so ``setup_s`` is a median over twice as many set-ups.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the samples: ``wall_s`` (first check to last verdict), ``setup_s`` (process
spawn to ``weylpoly`` imported and the seeded inputs generated) and
``peak_rss_mb`` (the sample's ru_maxrss).  Times are in seconds at the
reference speed of ``workloads.probe`` (see SENSITIVITY); the measured
seconds stay in the result file as ``raw_wall_s`` and ``raw_setup_s``.

--trace 1 alternates untraced and traced samples and reports the per-layer
metrics, medians over the traced ones, plus ``trace.overhead_share``
(traced wall against untraced).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result
file, with metadata, every sample and the spans, goes to
``bench/results/``; ``compare.py`` diffs two sets of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(HERE, "results")
WORKLOADS_PY = os.path.join(HERE, "workloads.py")

MIN_SAMPLES = 3
# How strongly each workload's time follows the probe's when the machine
# slows: the slope of log measured wall on log speed, fitted over 60-115
# samples per workload from 20 runs at speeds 0.45 to 1.1.  A workload that
# spends more of its time in long big-integer operations in C (certify)
# slows less than the interpreter-bound probe.
# wall_s = raw wall * speed ** SENSITIVITY.
SENSITIVITY = {"oracle": 0.9, "certify": 0.65, "stability": 0.7, "build": 0.9}
# The same slope for set-up time against the speed of the sample it belongs
# to (or follows, for a set-up-only sample), fitted over 301 samples.
SETUP_SENSITIVITY = 0.7
RUN_LIMIT_S = 150  # no sample starts that would end a run later than this
LAYERS = ("weylcomb", "recurrences", "exactpoly", "realroots", "stability")
LINE_MODULES = LAYERS + ("verify", "cli", "report")
BUILD_CALLS = {
    "recurrences.refined_Tq",
    "recurrences.refined_T1",
    "recurrences.refined_K",
    "recurrences.refined_affine_T",
    "recurrences.assemble",
}
RING_OPS = {
    "exactpoly.eval_q",
    "exactpoly.exact_divide",
    "exactpoly.eq",
    "exactpoly.poly_to_json",
    "exactpoly.poly_from_json",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYLPOLY_CAP", None)  # the default enumeration cap applies
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the warm-up cache bytecode
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, scale: str, trace: bool, timeout: float,
          tamper: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKLOADS_PY, "--workload", workload, "--seed", str(seed), "--scale", scale]
    cmd += ["--trace"] * trace + ["--tamper"] * tamper + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["raw_setup_s"] = sample["ready_at"] - spawned_at
    if not setup_only:
        sample["scale"] = sample["speed"] ** SENSITIVITY[workload]
        sample["wall_s"] = sample["raw_wall_s"] * sample["scale"]
        sample["setup_s"] = sample["raw_setup_s"] * sample["speed"] ** SETUP_SENSITIVITY
    sample["traced"] = trace
    return sample


def layer_metrics(sample: dict) -> dict:
    """Per-layer figures of one traced sample, from its spans and counts."""
    spans = sample["spans"]
    counts = sample["counts"]
    scale = sample["scale"]  # to reference-speed seconds, as wall_s

    def total(name=None, label=None, prefix=None, names=()):
        return sum((
            (end - start) * scale
            for n, lab, start, end, _ in spans
            if (name is None or n == name)
            and (label is None or lab == label)
            and (prefix is None or n.startswith(prefix))
            and (not names or n in names)
        ), 0.0)

    m = {f"{layer}.total_s": total(prefix=layer + ".") for layer in LAYERS}
    m["weylcomb.brute_s"] = total("weylcomb.brute_polynomial")
    m["weylcomb.bijection_s"] = total("weylcomb.bijection")
    for n in (5, 6):
        m[f"weylcomb.brute_Tq.n{n}_s"] = total("weylcomb.brute_polynomial", f"Tq.n{n}")
    m["weylcomb.objects"] = counts["objects"]
    busy = m["weylcomb.brute_s"] + m["weylcomb.bijection_s"]
    m["weylcomb.objects_per_s"] = counts["objects"] / busy if busy else 0.0

    m["recurrences.build_s"] = total(names=BUILD_CALLS)
    cumulative = 0.0
    for n in (10, 20, 30, 40):
        cumulative += total("recurrences.refined_Tq", f"n{n}")
        m[f"recurrences.refined_Tq.n{n}_s"] = cumulative
    m["recurrences.identity_s"] = total("recurrences.check_identity")
    m["recurrences.coeff_bits_max"] = counts["coeff_bits_max"]

    m["exactpoly.ring_s"] = total(names=RING_OPS)
    m["exactpoly.gcd_s"] = total(names={"exactpoly.poly_gcd", "exactpoly.derivative"})
    m["exactpoly.gcd.tildeD_n20_s"] = total("exactpoly.poly_gcd", "tildeD_n20")

    m["realroots.isolate_s"] = total("realroots.isolate_roots")
    for n in (10, 20, 30):
        m[f"realroots.isolate.tildeD_n{n}_s"] = total("realroots.isolate_roots", f"tildeD_n{n}")
    m["realroots.real_rooted_s"] = total("realroots.is_real_rooted")
    m["realroots.mutual_s"] = total("realroots.mutually_interlacing")
    for n in (6, 8, 10):
        m[f"realroots.mutual.T1_n{n}_s"] = total("realroots.mutually_interlacing", f"T1_n{n}")
    m["realroots.interlaces_s"] = total("realroots.interlaces")
    m["realroots.roots"] = counts["roots"]
    m["realroots.pairs"] = counts["pairs"]

    m["stability.hurwitz_symbolic_s"] = total("stability.hurwitz_determinants", "symbolic")
    m["stability.positivity_s"] = total("stability.q_positive_on_positive_reals")
    m["stability.via_s"] = total("stability.interlace_via_stability")
    for n in (6, 7, 8, 10, 15):
        m[f"stability.via.K_n{n}_s"] = total("stability.interlace_via_stability", f"K_n{n}")
    m["stability.pairs"] = counts["stability_pairs"]

    m["trace.coverage_share"] = sum(m[f"{layer}.total_s"] for layer in LAYERS) / sample["wall_s"]
    return m


def line_counts() -> dict:
    """Lines of every Python file under src/, in total and per module."""
    out = {f"{mod}.lines": 0 for mod in LINE_MODULES}
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname)) as fh:
                    n = sum(1 for _ in fh)
                total += n
                key = f"{fname[:-3]}.lines"
                if key in out:
                    out[key] += n
    out["src.lines"] = total
    return out


def metadata(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "lines": line_counts(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            tamper: bool = False, results_dir: str | None = RESULTS) -> dict:
    """Run the samples of one workload and return the result record."""
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not os.path.isfile(os.path.join(SRC, "weylpoly", "__init__.py")):
        raise BenchError(f"no weylpoly package under {SRC}")

    start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    spawn(workload, seed, scale, False, remaining(), setup_only=True)  # warm-up, discarded
    kinds = (False, True) if trace else (False,)
    samples: dict[bool, list] = {k: [] for k in kinds}
    setups: list[float] = []  # extra set-ups, so setup_s is a median of many
    begun = time.monotonic()
    while True:
        kind = kinds[sum(map(len, samples.values())) % len(kinds)]
        sample = spawn(workload, seed, scale, kind, remaining(), tamper=tamper)
        samples[kind].append(sample)
        extra = spawn(workload, seed, scale, False, remaining(), setup_only=True)
        setups.append(extra["raw_setup_s"] * sample["speed"] ** SETUP_SENSITIVITY)
        elapsed = time.monotonic() - begun
        per_sample = elapsed / sum(map(len, samples.values()))
        if remaining() < per_sample:
            break
        if elapsed + per_sample > seconds and all(len(v) >= MIN_SAMPLES for v in samples.values()):
            break

    untraced = samples[False]
    everything = [s for v in samples.values() for s in v]
    info = metadata(seed)
    if trace:
        traced = samples[True]
        layer_values = [layer_metrics(s) for s in traced]
        values = {k: median([m[k] for m in layer_values]) for k in layer_values[0]}
        values["trace.overhead_share"] = (
            median([s["wall_s"] for s in traced]) / median([s["wall_s"] for s in untraced]) - 1.0
        )
        values.update(info["lines"])
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": median([s["wall_s"] for s in untraced]),
            "setup_s": median(setups + [s["setup_s"] for s in everything]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in untraced]),
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = sum(s["attempted"] for s in everything)
    failures = [f for s in everything for f in s["failures"]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    if results_dir is not None:
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "scale": scale,
            "metadata": info,
            **result,
            "failed_share": len(failures) / attempted,
            "failures": failures[:20],
            "samples": [
                {k: s[k] for k in ("traced", "wall_s", "raw_wall_s", "speed", "scale", "setup_s",
                                   "raw_setup_s", "peak_rss_mb", "attempted")}
                | {"failed": len(s["failures"])}
                for s in everything
            ],
            "span_fields": ["name", "label", "start_s", "end_s", "parent"],
            "traces": [
                {"run_id": f"{workload}-seed{seed}-{i}", "spans": s["spans"]}
                for i, s in enumerate(everything)
                if s["traced"]
            ],
        }
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"checks attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
