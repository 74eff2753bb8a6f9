"""Start ``repro serve`` with the serve-mix layer probes installed.

The traced ``serve-mix`` pass starts the service through this launcher
instead of ``python -m repro serve``: it wraps the protocol, store and
result entry points (see :func:`serve_mix.instrument`), runs the normal
CLI, and when the service has drained after SIGTERM writes the span
tree as a ``repro profile --trace`` directory.

Usage (from the root of a checkout)::

    python perfbench/serve_launcher.py --out DIR [--seed N] -- serve [repro serve options]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import BenchError, bootstrap_repro, checkout_root


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="trace directory to write on exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the trace manifest")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="'--' then the repro command line")
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    try:
        bootstrap_repro(checkout_root())
    except BenchError as e:
        print(f"serve_launcher: {e}", file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    import serve_mix
    from probes import LayerProbe

    probe = LayerProbe("perfbench.serve-mix", seed=args.seed)
    serve_mix.instrument(probe)
    try:
        return repro_main(cli_argv)
    finally:
        probe.close()
        probe.write(args.out, "serve-mix", args.seed, extra={"argv": cli_argv})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
