"""Benchmark runner for advseq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout. Each workload pins its
configuration at `corpus-gen`, builds its prerequisites with the CLI (the
set-up), then repeats its timed CLI stages in fresh copies of the set-up
directory for at least S seconds. Every stage runs as its own process
through `bench/stage.py`, which calls `advseq.cli.main`; times are taken
around that process, so they include interpreter start-up as a user sees
it. Outputs are checked after every repetition, and the final artifacts of
all repetitions must be byte-identical.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics. With --trace 1 the set-up and every other repetition
run traced (spans around each wrapped layer) and the JSON holds the
per-layer metrics, with the tracing overhead measured against the
untraced repetitions of the same run. Details, including run metadata and
the spans, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import SETUP_LAYERS, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

STAGE = os.path.join(HERE, "stage.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 165.0     # start no repetition that would end past this
NLL_TOLERANCE = 0.5     # nats an NLL may sit below the exact entropy
# One BLAS thread per stage process: at these matrix sizes a second thread
# was slower on a 2-core machine, and a single thread keeps the timings
# independent of the machine's core count and of its other load.
STAGE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupFailed(RuntimeError):
    pass


class Ops:
    """Each stage call and each output check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_stage(args: tuple[str, ...], run_dir: str, trace: bool, result_path: str,
              extra: tuple[str, ...] = ()) -> dict:
    cmd = [sys.executable, STAGE, result_path, "1" if trace else "0", "--",
           *args, "--run-dir", run_dir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **STAGE_ENV})
    wall = time.perf_counter() - t0
    out = {"stage": " ".join(args), "wall_s": wall, "rc": proc.returncode,
           "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            out.update(json.load(fh))
        os.unlink(result_path)
    else:
        out["rc"] = out["rc"] or 1
    return out


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def without_column(path: str, column: str) -> bytes:
    """CSV bytes with one column dropped (wall-clock columns never repeat)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()


def file_digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


def setup(w: Workload, seed: int, run_dir: str, trace: bool, ops: Ops) -> dict:
    """corpus-gen plus the prerequisite stages, timed together."""
    os.makedirs(os.path.dirname(run_dir), exist_ok=True)
    sets = [a for k, v in w.config().items() for a in ("--set", f"{k}={v}")]
    stages = [("corpus-gen",)] + list(w.setup)
    results = []
    for i, stage in enumerate(stages):
        extra = ("--preset", "desk", "--seed", str(seed), *sets) if i == 0 else ()
        r = run_stage(stage, run_dir, trace, run_dir + ".stage.json", extra)
        results.append(r)
        if not ops.check(r["rc"] == 0, f"set-up stage {r['stage']} exited {r['rc']}"):
            raise SetupFailed(f"{r['stage']} exited {r['rc']}: {r['stderr']}")
    entropy = re.search(r"exact conditional entropy: ([0-9.]+) nats", results[0]["stdout"])
    train = re.search(r"corpus: (\d+) train", results[0]["stdout"])
    if not ops.check(entropy is not None and train is not None,
                     "corpus-gen printed no corpus size or exact entropy"):
        raise SetupFailed("corpus-gen printed no corpus size or exact entropy")
    return {"seconds": sum(r["wall_s"] for r in results), "entropy": float(entropy.group(1)),
            "train_rows": int(train.group(1)), "results": results}


def nll_ok(nll: float, entropy: float) -> bool:
    return math.isfinite(nll) and nll >= entropy - NLL_TOLERANCE


def check_outputs(w: Workload, run_dir: str, entropy: float, stage_out: list[dict],
                  ops: Ops) -> tuple[float, str]:
    """Check a finished repetition; returns (final NLL, artifact digest)."""
    join = lambda name: os.path.join(run_dir, name)
    if w.kind == "mle":
        nll = float(read_rows(join("gen_pretrain_log.csv"))[-1]["valid_nll"])
        parts = [read_bytes(join("gen_pretrain.ckpt")),
                 without_column(join("gen_pretrain_log.csv"), "wall_seconds")]
    elif w.kind == "adv":
        rows = read_rows(join("advtrain_metrics.csv"))
        nll = float(rows[-1]["nll_test"])
        ops.check(len(rows) == int(w.settings["adv.iterations"]),
                  f"advtrain wrote {len(rows)} metric rows")
        parts = [read_bytes(join("advtrain.ckpt")),
                 read_bytes(join("gen_adv.ckpt")),
                 without_column(join("advtrain_metrics.csv"), "wall_seconds")]
    else:
        micro, macro = (r["metrics_csv"] for r in stage_out)
        vals = next(csv.DictReader(micro.splitlines()))
        nll = float(vals["nll_test"])
        ops.check(abs(float(vals["nll_gap"]) - (nll - float(vals["exact_entropy"]))) < 1e-9,
                  "eval micro nll_gap disagrees with nll_test - exact_entropy")
        ops.check(all(0.0 <= float(vals[k]) <= 1.0 for k in ("bleu_test", "self_bleu")),
                  f"BLEU outside [0, 1]: {vals}")
        mvals = next(csv.DictReader(macro.splitlines()))
        ops.check(all(0.0 <= float(mvals[k]) <= 1.0
                      for k in ("adversuc", "ere1", "ere2", "ere3")),
                  f"macro metrics outside [0, 1]: {mvals}")
        parts = [micro.encode(), macro.encode()]
    ops.check(nll_ok(nll, entropy), f"NLL {nll} not finite or below entropy {entropy}")
    return nll, file_digest(parts)


def repetition(w: Workload, src: str, rep_dir: str, entropy: float, trace: bool,
               ops: Ops) -> dict:
    shutil.copytree(src, rep_dir)
    stage_out = []
    for stage in w.timed:
        r = run_stage(stage, rep_dir, trace, rep_dir + ".stage.json")
        ops.check(r["rc"] == 0, f"stage {r['stage']} exited {r['rc']}: {r['stderr']}")
        if r["rc"] == 0 and os.path.exists(os.path.join(rep_dir, "metrics.csv")):
            with open(os.path.join(rep_dir, "metrics.csv"), encoding="utf-8") as fh:
                r["metrics_csv"] = fh.read()
        stage_out.append(r)
    rep = {"wall_s": sum(r["wall_s"] for r in stage_out),
           "stage_s": {r["stage"]: r["wall_s"] for r in stage_out},
           "peak_rss_mib": max(r.get("maxrss_kib", 0) for r in stage_out) / 1024.0,
           "trace": trace, "stages": stage_out}
    if all(r["rc"] == 0 for r in stage_out):
        try:
            rep["final_nll"], rep["digest"] = check_outputs(w, rep_dir, entropy, stage_out, ops)
        except (OSError, KeyError, ValueError, IndexError, StopIteration) as e:
            ops.check(False, f"unreadable outputs: {e!r}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def run_meta(stage_results: list[dict]) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    threads = {r.get("blas_threads") for r in stage_results} - {None}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": sorted(threads),
            "commit": commit, "src_lines": src_lines}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def trace_metrics(setup_results: list[dict], reps: list[dict]) -> tuple[dict, list[str], list]:
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    # layers from the traced repetition with the median wall time
    pick = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    # a stage process that died wrote no summary; it counts as failed already
    metrics = layer_metrics(merge([s.get("summary", {}) for s in pick["stages"]]))
    # a stage as the program ran it: start-up to the end of cli.main,
    # leaving out the interpreter boot and the write-out of the spans
    ran = lambda stages: sum(s.get("startup_s", 0.0) + s.get("main_s", 0.0) for s in stages)
    metrics["stage.wall_s"] = ran(pick["stages"])
    metrics["stage.startup_s"] = sum(s.get("startup_s", 0.0) for s in pick["stages"])
    metrics["trace.overhead_pct"] = 100.0 * (median([ran(r["stages"]) for r in traced])
                                             / median([ran(r["stages"]) for r in plain]) - 1.0)
    setup_summary = merge([s.get("summary", {}) for s in setup_results])
    for target in SETUP_LAYERS:
        metrics[f"setup.{target}.self_s"] = setup_summary.get(target, {}).get("self_s", 0.0)
    metrics["setup.startup_s"] = sum(s["startup_s"] for s in setup_results)
    absent = sorted({a for s in setup_results + pick["stages"] for a in s.get("absent", [])})
    # per stage: every layer's self time plus start-up adds up to the wall time
    accounting = [(s["stage"], sum(v["self_s"] for v in s.get("summary", {}).values()),
                   s.get("startup_s", 0.0), ran([s])) for s in pick["stages"]]
    return metrics, absent, accounting


def per_layer_units() -> dict[str, str]:
    from layers import per_layer_spec
    return {m["name"]: m["unit"] for m in per_layer_spec()}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    work = os.path.join(WORK_DIR, f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ops = Ops()
    try:
        src = os.path.join(work, "setup0", "run")
        setups = [setup(w, seed, src, trace, ops)]
        reps: list[dict] = []
        t_measure = time.perf_counter()
        while True:
            # a cheap set-up is repeated before every repetition, so its
            # samples spread over the whole run; a traced run sets up once
            if reps and w.setup_per_rep and not trace:
                src = os.path.join(work, f"setup{len(setups)}", "run")
                setups.append(setup(w, seed, src, trace, ops))
            rep_trace = trace and len(reps) % 2 == 1
            reps.append(repetition(w, src, os.path.join(work, f"rep{len(reps)}", "run"),
                                   setups[0]["entropy"], rep_trace, ops))
            now = time.perf_counter()
            # two repetitions at least, so the byte check has a pair
            enough = len(reps) >= 2 and now - t_measure >= seconds
            if trace and len(reps) % 2 == 1:
                enough = False    # finish the untraced/traced pair
            if enough or now - start + reps[-1]["wall_s"] > RUN_LIMIT_S and len(reps) >= 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = [s["seconds"] for s in setups]
    # traced repetitions must produce the same bytes as untraced ones
    digests = [r.get("digest") for r in reps]
    for d in digests[1:]:
        ops.check(d is not None and d == digests[0],
                  "final artifacts differ between repetitions at one seed")
    good = [r for r in reps if "final_nll" in r]
    if not good:
        raise SetupFailed(f"no repetition finished: {ops.failures}")
    setup_results = [s for st in setups for s in st["results"]]
    stage_results = setup_results + [s for r in reps for s in r["stages"]]
    result = {"workload": w.name, "seed": seed, "trace": trace,
              "meta": run_meta(stage_results),
              "setup_s_each": setup_s,
              "reps": [{k: v for k, v in r.items() if k != "stages"} for r in reps],
              "failures": ops.failures, "attempted": ops.attempted}
    if trace:
        metrics, absent, accounting = trace_metrics(setup_results, reps)
        units = per_layer_units()
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        result["absent"] = absent
        result["accounting"] = accounting
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{w.name}-seed{seed}.spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for s in stage_results:
                for span in s.get("spans", []):
                    fh.write(json.dumps(span) + "\n")
    else:
        plain = [r for r in good if not r["trace"]]
        result["metrics"] = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "peak_rss_mib": {"value": median([r["peak_rss_mib"] for r in plain]), "unit": "MiB"},
            "stage_s": {"value": median([r["wall_s"] for r in plain]), "unit": "s"},
            "final_nll": {"value": median([r["final_nll"] for r in plain]), "unit": "nats"},
        }
        result["stage_s_each"] = {name: median([r["stage_s"][name] for r in plain])
                                  for name in plain[0]["stage_s"]}
        result["derived"] = derived(w, setups[0], result["metrics"], result["stage_s_each"])
    return result


def derived(w: Workload, setup_info: dict, metrics: dict, stage_each: dict) -> dict:
    """Per-workload figures carried by stage_s and final_nll."""
    cfg = w.config()
    stage_s = metrics["stage_s"]["value"]
    gap = (f"{w.kind}_nll_gap", (metrics["final_nll"]["value"] - setup_info["entropy"], "nats"))
    if w.kind == "mle":
        tokens = (setup_info["train_rows"] * int(cfg["corpus.seq_len"])
                  * int(cfg["pretrain.g_epochs"]))
        return dict([("mle_tokens_per_s", (tokens / stage_s, "1/s")), gap])
    if w.kind == "adv":
        return dict([("adv_iters_per_s", (int(cfg["adv.iterations"]) / stage_s, "1/s")), gap])
    return dict([(f"eval_{name.split()[-1]}_s", (value, "s"))
                 for name, value in stage_each.items()] + [gap])


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    w = result["workload"]
    print(f"workload {w}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"repetitions {len(result['reps'])}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        for name, (value, unit) in result["derived"].items():
            print(f"  ({name} {value:.6g} {unit})")
    else:
        for stage, self_sum, startup, wall in result["accounting"]:
            print(f"  {stage}: self_s over all layers {self_sum:.4f} s + start-up "
                  f"{startup:.4f} s = traced wall {wall:.4f} s")
        print(f"  absent layers: {', '.join(result['absent']) or 'none'}")
    print(f"  ops_attempted {result['attempted']} count")
    print(f"  ops_failed {len(result['failures'])} count")
    for f in result["failures"]:
        print(f"  FAILED: {f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{w}-seed{result['seed']}-trace{int(result['trace'])}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return {"correct": not result["failures"], "attempted": result["attempted"],
            "failed": len(result["failures"]), "metrics": result["metrics"]}


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT,
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running stage,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "advseq", "cli.py")):
        print(f"error: no advseq sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except SetupFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
