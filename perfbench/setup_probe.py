"""Time one set-up of a workload in a fresh process: importing kahlerlab and
building the workload's inputs for a seed. Prints the raw seconds and the
seconds at reference speed (see calibrate.py), measured in this process;
numpy, which the reference kernel needs, is imported first and left out.

    python3 perfbench/setup_probe.py <workload> <seed>   (with src/ on PYTHONPATH)
"""

import sys

import oracles  # noqa: F401  (benchmark code, loaded before the clock starts)
from calibrate import timed


def set_up(workload: str, seed: int) -> None:
    if workload == "cli-mix":
        import kahlerlab.cli  # noqa: F401
        from climix import build_cli_mix as build
    else:
        from workloads import WORKLOADS

        build = WORKLOADS[workload][0]
    build(seed)


def main() -> None:
    _, raw, norm = timed(set_up, sys.argv[1], int(sys.argv[2]))
    print(repr(raw), repr(norm))


if __name__ == "__main__":
    main()
