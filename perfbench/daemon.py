"""Run the analysis daemon exactly as ``repro serve`` does, and write a
report when it stops: its peak RSS, its metrics registry and, with
``--trace``, the per-layer spans recorded inside it.

    python3 perfbench/daemon.py --report PATH [--trace] [repro serve options]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args, serve_args = parser.parse_known_args()
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

    from repro.obs import metrics
    from repro.service.cli import main as repro_main
    from stats import peak_rss_kb
    from tracer import Tracer

    tracer = Tracer().install() if args.trace else None
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "exit_code": code,
        "peak_rss_kb": peak_rss_kb(),
        "registry": metrics().snapshot(),
        "layers": None if tracer is None else tracer.layer_metrics(),
        "fired": [] if tracer is None else sorted(tracer.fired()),
        "self_time_s": 0.0 if tracer is None else tracer.self_time_total(),
    }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
