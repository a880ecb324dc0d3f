"""gowrank benchmark: seeded workloads through the real CLI, with checks.

    python3 perfbench/run.py --workload rerank-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30

Run from the repository root.  The workload's input sets are generated
from the seed first; then, while the next repeat still fits in --seconds
(and at least MIN_REPEATS times, and once per input set), a fresh child
process with BLAS pinned to one thread runs index -> train -> rerank ->
eval on one input set (`child.py`).  Meanwhile this process, pinned to
the same vCPU, samples the vCPU's speed with `probe`, and each command's
time is its CPU time scaled to a reference speed.  Each metric is the
median over the repeats of each input set, averaged over the sets.
With --trace 1 traced and untraced children alternate, and the per-layer
metrics of `tracing.py` are reported with the tracing overhead.

Every command's exit code, every query's reranked pool (the BM25 top
`candidates` from `retrieval.top_candidates`, scores finite and inside
(-1, 1)) and the byte identity of all artifacts across repeats are
checked; the last stdout line is the JSON result, and the exit code is 1
when any check failed.  Full records go to .perfbench_work/results/; the
inputs and child logs of a failed run stay in .perfbench_work/.
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
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
# speed probe: PROBE_LOOPS iterations take about PROBE_REF_S of CPU on a
# Xeon vCPU of a shared 2-vCPU host, so scaled times stay close to real
# seconds there; one probe every PROBE_GAP_S costs the child ~10% of its vCPU
PROBE_LOOPS = 9000
PROBE_REF_S = 1e-3
PROBE_GAP_S = 0.01
MIN_PROBE_SAMPLES = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ARTIFACTS = ("rerank.run", "train.log", "model.ckpt", "report.json")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": 1, "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "git_sha": sha or "unknown"}


def expected_pools(config: Path) -> dict[str, set[str]]:
    """Per query, the doc ids of retrieval.top_candidates, built from the
    generated corpus independently of the index the program wrote."""
    from gowrank.config import load_config
    from gowrank.corpus import (build_vocabulary, default_stopwords,
                                encode_document, make_query, read_corpus,
                                read_queries, tokenize)
    from gowrank.retrieval import PostingsIndex, top_candidates

    cfg = load_config(config, {}, {})  # the generated config sets no stopwords file
    tokenized = {d: tokenize(text) for d, text in read_corpus(cfg.corpus)}
    vocab = build_vocabulary(tokenized.values(), stopwords=default_stopwords(),
                             min_freq=cfg.min_freq,
                             count_documents=cfg.min_freq_mode == "docs")
    index = PostingsIndex(encode_document(vocab, d, t) for d, t in tokenized.items())
    pools = {}
    for qid, title in read_queries(cfg.queries):
        pool = top_candidates(make_query(vocab, qid, tokenize(title)), index,
                              cfg.candidates)
        if pool:
            pools[qid] = {doc for doc, _ in pool}
    return pools


def check_run_file(path: Path, pools: dict[str, set[str]]) -> tuple[int, int]:
    """(attempted, failed) query checks on one run file."""
    got: dict[str, list[str]] = {}
    bad: set[str] = set()
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) != 6:
                bad.add(parts[0] if parts else "")
                continue
            got.setdefault(parts[0], []).append(parts[2])
            try:
                score = float(parts[4])
            except ValueError:
                score = math.nan
            if not (math.isfinite(score) and -1.0 < score < 1.0):
                bad.add(parts[0])
    qids = set(pools) | set(got) | bad
    failed = sum(
        q in bad or q not in pools or len(got.get(q, [])) != len(pools[q])
        or set(got.get(q, [])) != pools[q]
        for q in qids)
    return len(qids), failed


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).exists() else "missing" for name in ARTIFACTS}


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: one sample of how fast the
    vCPU runs right now."""
    start = time.process_time()
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
        table[i & 63] = acc
    return time.process_time() - start


def normalised_s(record: dict, samples: list[tuple[float, float]]) -> dict[str, float]:
    """Per command, CPU seconds scaled to a vCPU on which `probe` takes
    PROBE_REF_S: cpu_s * PROBE_REF_S / mean probe time during the command.
    A command shorter than MIN_PROBE_SAMPLES probes uses the probes nearest
    to its midpoint."""
    out = {}
    for name, (start, end) in record["spans"].items():
        inside = [cost for t, cost in samples if start <= t <= end]
        if len(inside) < MIN_PROBE_SAMPLES:
            mid = (start + end) / 2
            inside = [cost for _, cost in sorted(
                samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBE_SAMPLES]]
        out[name] = record["cpu_s"][name] * PROBE_REF_S / statistics.fmean(inside)
    return out


def run_repeat(config: Path, out: Path, trace: bool) -> dict:
    """One child; meanwhile this process, pinned to the child's vCPU,
    sleeps PROBE_GAP_S and runs `probe`, over and over."""
    out.mkdir(parents=True)
    result = out / "result.json"
    samples: list[tuple[float, float]] = []
    with open(out / "child.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(config), str(out),
             "1" if trace else "0", str(result)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        try:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(PROBE_GAP_S)
                start = time.perf_counter()
                cost = probe()
                samples.append(((start + time.perf_counter()) / 2, cost))
            code = proc.poll()
            if code is None:
                code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if code != 0 or not result.exists() or not samples:
        return {"traced": trace, "child_exit": code, "exit_codes": {}}
    record = json.loads(result.read_text(encoding="utf-8"))
    record["traced"] = trace
    record["child_exit"] = code
    record["norm_s"] = normalised_s(record, samples)
    record["probes"] = len(samples)
    report = out / "report.json"
    if report.exists():
        mean = json.loads(report.read_text(encoding="utf-8"))["mean"]
        record["ndcg20"] = mean.get("ndcg@20")
    return record


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child, to one vCPU: the probe then
    samples the speed of the vCPU the child runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def input_mean(repeats: list[dict], value) -> float:
    """Median of `value` over the repeats of each input set, averaged over
    the input sets."""
    by_input: dict[int, list[float]] = {}
    for r in repeats:
        by_input.setdefault(r["input"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict[str, float]]:
    from child import COMMANDS
    from inputs import WORKLOADS, generate, sub_seeds

    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    seeds = sub_seeds(workload, seed)
    configs = [generate(workload, s, work / f"inputs{j}")
               for j, s in enumerate(seeds)]
    pools = [expected_pools(c) for c in configs]

    repeats: list[dict] = []
    attempted = failed = 0
    first_digests: dict[int, dict] = {}
    min_rounds = max(MIN_TRACED_PAIRS if trace else MIN_REPEATS, len(seeds))
    deadline = time.monotonic() + seconds
    rounds, last = 0, 0.0
    # round r runs input set r mod len(seeds): an untraced repeat, followed
    # by a traced one under --trace 1; stop before a round that would
    # overrun the deadline
    while rounds < min_rounds or time.monotonic() + last <= deadline:
        round_start = time.monotonic()
        j = rounds % len(seeds)
        for traced in ((False, True) if trace else (False,)):
            out = work / f"rep{len(repeats):02d}"
            rec = run_repeat(configs[j], out, traced)
            rec["input"] = j
            codes = rec["exit_codes"]
            attempted += len(COMMANDS)
            failed += sum(codes.get(c) != 0 for c in COMMANDS)
            q_attempted, q_failed = check_run_file(out / "rerank.run", pools[j])
            attempted += q_attempted
            failed += q_failed
            rec["digests"] = digests(out)
            if j not in first_digests:
                first_digests[j] = rec["digests"]
            else:
                attempted += 1
                failed += rec["digests"] != first_digests[j]
            repeats.append(rec)
            shutil.rmtree(out / "index", ignore_errors=True)
        rounds += 1
        last = time.monotonic() - round_start

    ok = [r for r in repeats if "norm_s" in r]
    plain = [r for r in ok if not r["traced"]]
    values: dict[str, float] = {}
    if trace:
        traced_runs = [r for r in ok if r["traced"]]
        if traced_runs and plain:
            values = {k: input_mean(traced_runs, lambda r: r["layers"][k])
                      for k in traced_runs[0]["layers"]}
            total = input_mean(traced_runs, lambda r: sum(r["norm_s"].values()))
            base = input_mean(plain, lambda r: sum(r["norm_s"].values()))
            values["trace.overhead_share"] = total / base - 1.0
    elif plain:
        values = {
            "setup_s": input_mean(plain, lambda r: r["norm_s"]["index"]),
            "train_s": input_mean(plain, lambda r: r["norm_s"]["train"]),
            "rerank_s": input_mean(plain, lambda r: r["norm_s"]["rerank"]),
            "peak_rss_mb": input_mean(plain, lambda r: r["peak_rss_mb"]),
        }
    if not values:
        failed = max(failed, 1)
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    # printed and recorded, but not gated: see perfbench/NOTES.md
    extra = {"failed_share": failed / attempted}
    if plain and not trace:
        extra["ndcg20"] = input_mean(plain, lambda r: r.get("ndcg20") or 0.0)
    record = {"workload": workload, "seed": seed, "input_seeds": seeds,
              "seconds": seconds, "trace": trace, "environment": environment(),
              "thread_env": {var: "1" for var in THREAD_VARS},
              "spec": WORKLOADS[workload], "repeats": repeats, "result": result,
              "extra": extra}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if result["correct"]:  # a failed run keeps its inputs and child logs
        shutil.rmtree(work)
    return result, extra


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "ndcg20":
        return "score"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls"):
        return "count"
    if name == "graph.nodes_mean":
        return "nodes"
    if name == "graph.edges_mean":
        return "edges"
    if name == "retrieval.pool_size_mean":
        return "docs"
    return "ratio"


def print_table(workload: str, result: dict, extra: dict[str, float]) -> None:
    rows = {k: m["value"] for k, m in result["metrics"].items()}
    rows.update(extra)
    for name, value in rows.items():
        print(f"[{workload}] {name} {value:.6g} {unit(name)}")
    print(f"[{workload}] {result['failed']} of {result['attempted']} "
          f"operations failed")


def main(argv=None) -> int:
    if not (SRC / "gowrank" / "cli.py").is_file():
        print(f"error: {SRC / 'gowrank'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    workloads = list(WORKLOADS) if args.all else [args.workload]
    # SIGTERM unwinds like an error, so run_repeat still stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    correct = True
    for workload in workloads:
        result, extra = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace))
        print_table(workload, result, extra)
        correct = correct and result["correct"]
    if not args.all:
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
