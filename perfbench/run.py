#!/usr/bin/env python3
"""Benchmark of the bayesgram package: training throughput and the read path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poly --seed 0 --seconds 10 --trace 0

Each workload is one user session through the public API: count the
vocabulary, train the four model kinds (bsg, sg, w2g_s, w2g_d) on the
shared window/negative stream and save each, and, from one closed-loop
client, load a query model, issue `nearest` and `infer` queries and run
every evaluation (see bench.py). Inputs are generated from --seed under
perfbench/_work/. Every operation's output is checked outside the timed
region. The last line of stdout is one JSON object: with --trace 0 it
carries the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see metric_map.json). `--workload all` runs every workload,
each in a fresh process, and prints them all.

Exit status is 0 when the run completed, whatever its checks found, and 1
when it could not run, for example outside a checkout.
"""

import os

# one process, no extra threads: pin BLAS pools before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

KINDS = ("bsg", "sg", "w2g_s", "w2g_d")
# poly windows/s measured at the ROADMAP re-anchor (20 documents, seed 0)
ROADMAP_POLY_WPS = {"bsg": 2000.0, "sg": 12700.0, "w2g_s": 2600.0, "w2g_d": 2700.0}
WORKLOAD_NAMES = ("poly", "zipf")


def import_library():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "bayesgram" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'bayesgram'} not found; run from a checkout")
    sys.path.insert(0, str(src))
    import bayesgram
    if Path(bayesgram.__file__).resolve().parent != (src / "bayesgram").resolve():
        sys.exit(f"error: imported bayesgram from {bayesgram.__file__}, not {src}")


# ---------------------------------------------------------------- reports

# every metric's scope and unit, in the order of BENCHMARK.json
METRICS = json.loads((HERE / "metric_map.json").read_text())["metrics"]


def end_to_end(s):
    return {name: {"value": s.metrics.get(name, 0.0), "unit": spec["unit"]}
            for name, spec in METRICS.items() if spec["scope"] == "end_to_end"}


def per_layer(s):
    """Per-layer metrics of a traced session (see metric_map.json)."""
    t = s.tracer
    m = {}

    def put(name, value):
        m[name] = {"value": float(value), "unit": METRICS[name]["unit"]}

    put("corpus.vocab_s", statistics.median(
        x.seconds for x in t.spans if x.name == "corpus.vocab"))
    put("corpus.windows", s.windows)
    put("corpus.tasks", s.tasks)
    put("corpus.stream_wps", s.windows / s.stream_seconds)
    clip_calls = 0
    for kind in KINDS:
        span = t.span_seconds("train", kind)
        stream_s, stream_n = t.counter("corpus.stream", kind)
        step_s, steps = t.counter("optim.step", kind)
        put(f"corpus.stream_s.{kind}", stream_s)
        put(f"corpus.stream_items.{kind}", stream_n)
        put(f"optim.steps.{kind}", steps)
        put(f"optim.step_s.{kind}", step_s)
        put(f"optim.bytes_per_step.{kind}", t.adam_bytes_per_step.get(kind, 0))
        put(f"serialize.save_s.{kind}", t.span_seconds(f"serialize.save.{kind}"))
        put(f"serialize.file_bytes.{kind}", s.file_bytes.get(kind, 0))
        children = {"stream": stream_s, "optimizer": step_s}
        if kind == "bsg":
            children["encoder"] = (t.counter("encoder.forward", kind)[0]
                                   + t.counter("encoder.backward", kind)[0])
            layer = "bsg"
        else:
            layer = "baselines"
            if kind != "sg":
                clip_s, n = t.counter("baselines.clip", kind)
                children["clip"] = clip_s
                clip_calls += n
                put(f"baselines.clip_s.{kind}", clip_s)
        self_s = span - sum(children.values())
        suffix = "" if kind == "bsg" else f".{kind}"
        put(f"{layer}.span_s{suffix}", span)
        put(f"{layer}.self_s{suffix}", self_s)
        if span:
            shares = ", ".join(f"{k} {v / span:.1%}" for k, v in children.items())
            s.notes.append(f"{kind} train span {span:.3f} s: {shares}, "
                           f"self {self_s / span:.1%}")
    put("baselines.clip_calls", clip_calls)
    put("optim.step_ms.p50", t.median_step_ms())
    put("optim.state_mb", max(t.adam_state_bytes.values(), default=0) / 2 ** 20)
    for key in ("encoder.forward", "encoder.backward", "gauss.kl", "gauss.cosine"):
        secs, calls = t.counter(key)
        put(f"{key}_calls", calls)
        put(f"{key}_s", secs)
    for name in ("load", "nearest", "infer"):
        calls = sum(1 for x in t.spans if x.name == f"serialize.{name}")
        put(f"serialize.{name}_s", t.span_seconds(f"serialize.{name}") / max(calls, 1))
    for name in ("sim", "entail", "best_f1", "direction", "lexsub", "logdet"):
        put(f"evaluate.{name}_s", t.span_seconds(f"evaluate.{name}"))
    put("defects.attempted", s.defects.attempted)
    put("defects.failed", s.defects.failed)
    traced = sum(map(sum, s.train_seconds.values()))
    put("trace.overhead_frac", traced / s.untraced_train_s - 1.0)
    return m


def write_spans(s):
    """Every span of a traced session, as JSON under perfbench/_work/."""
    path = WORK / f"spans-{s.w.name}-{s.seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump([{"name": x.name, "label": x.label, "start": x.start, "end": x.end,
                    "parent": x.parent} for x in s.tracer.spans], f)
    return path


def report(s, metrics, trace):
    print(f"# workload {s.w.name}, seed {s.seed}, trace {trace}: |V| = {len(s.vocab)}, "
          f"{s.windows} windows and {s.tasks} tasks per epoch, {s.rounds} query rounds")
    for kind, loss in s.losses.items():
        print(f"# epoch loss {kind} {loss!r}")
    for name, v in metrics.items():
        line = f"{name} {v['value']:.6g} {v['unit']}"
        if not trace and s.w.name == "poly" and name.startswith("train_wps."):
            base = ROADMAP_POLY_WPS[name.split(".", 1)[1]]
            line += f"  (ROADMAP baseline {base:.0f}: {v['value'] / base - 1:+.1%})"
        print(line)
    for note in s.notes:
        print(f"# {note}")
    ops, defects = s.ops, s.defects
    print(f"ops_failed_frac {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    print(f"known_defects_failed_frac {defects.failed / max(defects.attempted, 1):.6g} "
          f"ratio ({defects.failed} of {defects.attempted} operations on sg and w2g_d)")
    for failure in sorted(set(defects.failures)):
        print(f"# known defect: {failure}")


def run_one(args):
    import_library()
    sys.path.insert(0, str(HERE))
    import bench
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    WORK.mkdir(exist_ok=True)
    session = bench.Session(args.workload, args.seed, args.seconds, tracer)
    session.run()
    if args.trace:
        metrics = per_layer(session)
        session.notes.append(f"spans written to {write_spans(session).relative_to(ROOT)}")
    else:
        metrics = end_to_end(session)
    report(session, metrics, args.trace)
    print(json.dumps({"correct": session.ops.failed == 0,
                      "attempted": session.ops.attempted,
                      "failed": session.ops.failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum duration of the query loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
