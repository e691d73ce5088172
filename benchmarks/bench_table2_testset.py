"""Table 2 — a conventional (first-approach) scan test set for ``s27``.

The paper's Table 2 lists four ``(SI_i, T_i)`` tests produced by a
procedure that distinguishes scan operations from functional vectors.
This bench regenerates such a set with the conventional generator in
its first-approach setting (PODEM on the combinational view, one vector
per test) and checks its defining characteristics."""

from repro.atpg import SecondApproachATPG, SecondApproachConfig
from repro.circuit import s27
from repro.compaction import scan_set_compact
from repro.faults import collapse_faults

from conftest import emit


def generate():
    circuit = s27()
    faults = collapse_faults(circuit)
    config = SecondApproachConfig(seed=2, max_test_length=1, compact=False)
    result = SecondApproachATPG(circuit, faults, config).generate()
    compacted, _ = scan_set_compact(circuit, faults, result.test_set)
    return circuit, faults, result, compacted


def bench_table2_test_set(benchmark, report_dir):
    circuit, faults, result, compacted = benchmark.pedantic(
        generate, rounds=1, iterations=1
    )
    assert result.coverage() == 100.0
    assert all(t.functional_cycles == 1 for t in result.test_set)

    lines = [
        "Table 2: first-approach scan test set S for s27 (regenerated)",
        f"  {len(result.test_set)} tests before compaction, "
        f"{len(compacted)} after reverse-order compaction",
        f"  fault coverage {result.coverage():.2f}% of "
        f"{len(faults)} collapsed faults of C",
        f"  conventional application: {compacted.summary()}",
        "",
        "  i  (SI, T)",
    ]
    for index, test in enumerate(compacted, start=1):
        lines.append(f"  {index}  {test}")
    emit(report_dir, "table2", "\n".join(lines))
