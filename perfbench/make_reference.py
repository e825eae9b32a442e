"""Record the reference outputs of the pinned seed, one file per workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every distinct input of the pinned seed once, serially, and writes
reference/<workload>.json. Only rerun it on a commit whose outputs are
known to be right: run.py fails every op that disagrees with these files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads


def record(cli, cls) -> dict:
    tmp = tempfile.mkdtemp(prefix=f"ref-{cls.name}-", dir=run.OUT_DIR)
    try:
        workload = cls(workloads.PINNED_SEED, tmp)
        workload.setup()
        runner = run.Runner(cli, workload)
        ops = {}
        for k in range(workload.n_inputs):
            outputs = []
            for label, argv in workload.calls(k, serial=True):
                code, _ = runner.call(argv)
                if code != 0:
                    raise SystemExit(f"{cls.name} op {k} {label}: exit code {code}")
                got = workload.read_output(label)
                problem = workload.check(label, got)
                if problem:
                    raise SystemExit(f"{cls.name} op {k}: {problem}")
                outputs.append(workload.reference_view(got))
            ops[str(k)] = outputs
        return {"workload": cls.name, "seed": workloads.PINNED_SEED, "ops": ops}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(names) -> int:
    cli = run.import_package()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        wanted = workloads.blas_env(workloads.WORKLOADS[name])
        if any(os.environ.get(var) != value for var, value in wanted.items()):
            # record under the BLAS settings run.py uses for this workload
            subprocess.run([sys.executable, __file__, name],
                           env={**os.environ, **wanted}, check=True)
            continue
        payload = record(cli, workloads.WORKLOADS[name])
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(payload['ops'])} inputs -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
