"""Run a ``scripts/`` CLI with the benchmark's span probes installed.

Usage: ``python3 perfbench/traced_cli.py SCRIPT [ARGS...]`` with
``PERFBENCH_SPANS`` naming the directory for span files and
``PERFBENCH_LAUNCH`` holding the launcher's ``time.perf_counter()``
just before it started this process (``cli.import`` spans from there
to the script's ``main()``).  The script is loaded under another module
name so its ``__main__`` block does not run, then its ``main()`` is
called with ``ARGS``.
"""

import importlib.util
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.probes import Probes  # noqa: E402
from perfbench.spans import Recorder, Span  # noqa: E402


def main() -> None:
    script, argv = sys.argv[1], sys.argv[2:]
    span_dir = Path(os.environ["PERFBENCH_SPANS"])
    launch = float(os.environ["PERFBENCH_LAUNCH"])
    recorder = Recorder()
    probes = Probes(recorder, span_dir).install()
    spec = importlib.util.spec_from_file_location("perfbench_cli", script)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.argv = [script, *argv]
    spec.loader.exec_module(module)
    probes.install_cli(module)
    recorder.spans.append(Span(f"{os.getpid()}:import", None, "cli.import",
                               launch, time.perf_counter()))
    try:
        module.main(argv)
    finally:
        recorder.dump(span_dir / f"spans-{os.getpid()}.json")


if __name__ == "__main__":
    main()
