"""Drive the command-line interface from Python.

Every experiment is a subcommand; runs land in <outdir>/<experiment>/<hash>/
with a canonical report.json and CSV attachments, and the hash depends only
on the canonical config, so a rerun overwrites its own directory in place.
"""
import json
import tempfile
from pathlib import Path

from fractalwalk.cli import main

with tempfile.TemporaryDirectory() as out:
    print("$ fractalwalk eval --r 3 --x 1/3 --weights power:0.5 --delta 0.5")
    main(["eval", "--r", "3", "--x", "1/3", "--weights", "power:0.5",
          "--delta", "0.5", "--outdir", out])
    print()

    print("$ fractalwalk clt --p 0.6 --n 2000 --replicas 5000")
    rc = main(["clt", "--p", "0.6", "--n", "2000", "--replicas", "5000",
               "--outdir", out])
    print(f"exit status {rc}")
    print()

    print("$ fractalwalk blocks --count 8")
    main(["blocks", "--count", "8", "--outdir", out])
    print()

    # same config, same directory: the layout is content-addressed
    for run_dir in sorted(Path(out).glob("*/*/")):
        report = json.loads((run_dir / "report.json").read_text())
        rel = run_dir.relative_to(out)
        print(f"{rel}: experiment={report['experiment']}, passed={report['passed']}")
