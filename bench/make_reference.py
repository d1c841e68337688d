"""Write reference.json from the outputs of the sweep workloads.

Run from the repository root, once, on the commit whose outputs are the
reference; the stored file records that commit:

    python3 bench/make_reference.py
"""

import json
import shutil

import run


def main() -> None:
    cli = run.load_cli()
    workdir = run.OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    sweeps = {}
    try:
        for name in ("sweep-n32", "sweep-n256"):
            call = run.SweepCall(workdir, name, run.sweep_config(name), None)
            if cli.main(call.argv) != 0:
                raise SystemExit(f"{name} did not exit 0")
            rows = json.loads((call.out / "convergence.json").read_text(encoding="utf-8"))
            sweeps[name] = [
                {
                    "alpha": row["alpha"],
                    **{c: row[c] for c in run.SWEEP_COLUMNS},
                    "precision_limited": row["precision_limited"],
                }
                for row in rows
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"revision": run.revision(), "sweeps": sweeps}
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
