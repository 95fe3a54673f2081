"""Record the expected outputs the benchmark compares against.

Run once from the repository root at the commit whose outputs are the
reference, then commit perfbench/expected/:

    python3 perfbench/record.py

For every workload it writes <name>.lib.txt, the library output at seed 0,
and <name>.cli.txt, the stdout of the workload's CLI command.
"""

from __future__ import annotations

from workloads import EXPECTED, WORKLOADS, run_cli, timed_setup


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        ctx, code, _ = timed_setup(wl)
        text, _ = wl.operate(wl, ctx, code, 0)
        (EXPECTED / f"{wl.name}.lib.txt").write_text(text, encoding="utf-8")
        from polargrass.cli import main as cli_main

        rc, out = run_cli(cli_main, wl.cli_argv)
        if rc != 0:
            raise SystemExit(f"{wl.name}: {' '.join(wl.cli_argv)} exited {rc}")
        (EXPECTED / f"{wl.name}.cli.txt").write_text(out, encoding="utf-8")
        print(f"{wl.name}: recorded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
