"""Record the seed-0 reference every benchmark run is compared against.

Runs each workload once at seed 0 and writes every flow point's
``FlowResult`` fields (and, for ``flow-complete-dc``, the
``CompleteDcReport``) to ``reference_seed0.json``.  Record it from the
commit whose results are to be kept bit-identical::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"


def main() -> int:
    os.environ.setdefault("REPRO_CACHE_DIR", str(WORK / "benchgen"))
    os.environ.setdefault("REPRO_LEDGER_DISABLE", "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    from client import stop_pool
    from tracing import NullRecorder
    from workloads import (
        WORKLOADS,
        ContextCapture,
        load_inputs,
        prepare_inputs,
        recover_sweep_contexts,
        result_record,
        run_complete_dc,
        run_serial_flows,
        run_sweep,
        sweep_jobs,
        temporary_checkpoints,
    )

    reference = {}
    for workload in WORKLOADS:
        prepare_inputs(workload, 0, WORK)
        specs = load_inputs(workload, 0, WORK)
        if workload == "flow-complete-dc":
            points = run_complete_dc(specs, NullRecorder())
        elif workload == "sweep-checkpointed":
            with temporary_checkpoints(WORK) as checkpoints:
                points = run_sweep(specs, checkpoints, sweep_jobs(), {})
                recover_sweep_contexts(points, checkpoints)
        else:
            capture = ContextCapture()
            points = run_serial_flows(specs, "delay", NullRecorder(), capture)
            capture.close()
        errors = [f"{p.key}: {p.error}" for p in points if p.error is not None]
        if errors:
            raise SystemExit("cannot record a reference from failing points:\n" + "\n".join(errors))
        reference[workload] = {p.key: result_record(p) for p in points}
        print(f"{workload}: {len(points)} points", file=sys.stderr)
    stop_pool()
    (HERE / "reference_seed0.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
