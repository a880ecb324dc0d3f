"""One repeat of a workload in a fresh process: index -> train -> rerank -> eval.

    python3 perfbench/child.py CONFIG OUT_DIR TRACE RESULT_JSON

Runs each command through `gowrank.cli.main`, the function behind the
`gowrank` console script, with every artifact written under OUT_DIR.  All
imports happen before the first timer starts.  With TRACE=1 the spans of
`tracing.py` are installed first.  Writes wall and CPU times, the
`time.perf_counter` start and end of each command (the parent's speed
probe uses the same clock), exit codes, peak RSS and (traced) per-layer
metrics to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gowrank.cli

COMMANDS = ("index", "train", "rerank", "eval")


def arguments(command: str, out: Path) -> list[str]:
    """Flags that put every artifact of one repeat under `out`."""
    index = ["--index-dir", str(out / "index")]
    model = ["--checkpoint", str(out / "model.ckpt")]
    return {
        "index": index,
        "train": index + model + ["--log-out", str(out / "train.log")],
        "rerank": index + model + ["--run-out", str(out / "rerank.run")],
        "eval": ["--run", str(out / "rerank.run"),
                 "--report-out", str(out / "report.json")],
    }[command]


def main(argv: list[str]) -> int:
    config, out, trace, result = argv
    out = Path(out)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wall, cpu, spans, codes = {}, {}, {}, {}
    for name in COMMANDS:
        args = [name, "--config", config, *arguments(name, out)]
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            codes[name] = gowrank.cli.main(args)
        except Exception:  # an uncaught error is a failed command, not a crash
            traceback.print_exc()
            codes[name] = -1
        end = time.perf_counter()
        wall[name] = end - start
        cpu[name] = time.process_time() - start_cpu
        spans[name] = [start, end]
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "spans": spans,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
    Path(result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
