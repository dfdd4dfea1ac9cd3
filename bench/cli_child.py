"""Run one treatalloc CLI verb, then record this process's own peak RSS.

    python3 bench/cli_child.py RSS_FILE VERB [ARGS...]

Equivalent to ``treatalloc VERB ARGS...`` (same ``cli.run``, same exit
code). The peak is the ``VmHWM`` line of ``/proc/self/status``, in KiB:
unlike ``ru_maxrss`` it belongs to the memory map created by ``exec`` and so
does not include the parent's resident set at the time of the fork.
"""

import sys
from pathlib import Path

from treatalloc.cli import run

if __name__ == "__main__":
    code = run(sys.argv[2:])
    status = Path("/proc/self/status")
    peak = ""
    if status.exists():
        peak = next((line.split()[1] for line in status.read_text().splitlines()
                     if line.startswith("VmHWM:")), "")
    Path(sys.argv[1]).write_text(peak, encoding="utf-8")
    sys.exit(code)
