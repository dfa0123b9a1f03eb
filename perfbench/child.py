"""One workload process.  Started by run.py; not meant to be run by hand.

    child.py MODE WORKLOAD SEED SECONDS TINY

MODE is probe (set up and exit), plain or traced.  The process caps its
own address space, imports the package and, for cli workloads, imports
cli and builds the parser; then it prints one `ready` line, which ends its
set-up time.  Everything else is imported after that line.  A probe's
last line is {"cli_import_s": ...}: cli's own import, after the package's.
On the workloads that do not use cli it is timed after `ready`, outside
set-up.
"""

import resource
import sys
import time
from pathlib import Path

#: Address-space cap: a memory regression fails this run, not the machine.
ADDRESS_SPACE_BYTES = 1 << 30

resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
mode, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import triple_lattice  # noqa: E402


def import_cli() -> float:
    t0 = time.perf_counter()
    import triple_lattice.cli  # noqa: F401

    return time.perf_counter() - t0


if workload == "enum-stream":
    cli_import_s = import_cli()
    triple_lattice.cli.build_parser()
print("ready", flush=True)
if workload != "enum-stream":
    cli_import_s = import_cli()

if mode == "probe":
    print(f'{{"cli_import_s": {cli_import_s!r}}}')
else:
    import session  # noqa: E402

    sys.exit(session.main(mode, workload, int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1"))
