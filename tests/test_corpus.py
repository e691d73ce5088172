"""Big-circuit corpus: robust ingest, registry dispatch, scale guards.

Covers the PR-10 surface: published-format ``.bench`` text (wrapped
operand lists, case/spacing variants) parses and round-trips, the
``corpus:<name>`` registry builds deterministic s15850-class stand-ins,
the shared loader dispatches on suffix case-insensitively with one-line
errors for unsupported formats, and the scale machinery (auto
checkpoint policy, memory-bounded shards) stays bit-identical.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    CORPUS,
    CircuitError,
    corpus_names,
    is_corpus_spec,
    load_circuit,
    parse_bench,
    random_circuit,
    s27,
    synth_like,
    write_bench,
)
from repro.circuit.verilog import parse_verilog, write_verilog


# -- published-format ingest --------------------------------------------------

#: The published ISCAS-89 s27 netlist, verbatim (header comments, blank
#: separator lines, DFFs before gates) — the distribution format every
#: s*/b* file shares.
S27_PUBLISHED = """\
# s27
# 4 inputs
# 1 outputs
# 3 D-type flipflops
# 2 inverters
# 8 gates (1 ANDs + 1 NANDs + 2 ORs + 4 NORs)

INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)

OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
"""

#: An s344-style excerpt in the published formatting: header block,
#: ``INPUT (net)`` spacing variant, lowercase/BUFF kind variants.
S344_STYLE = """\
# s344
# 9 inputs
# 11 outputs
# 15 D-type flipflops
# 1 inverter
# 160 gates (59 ANDs + 18 NANDs + 29 ORs + 54 NORs)

INPUT (CLR)
INPUT(DATA_3)
input(DATA_2)

OUTPUT (READY)
OUTPUT(CTR_3)

CTR_3 = DFF(AX2)
MRQSTB = dff(AX3)

CTRNOT = NOT(CLR)
AX2 = AND(CTRNOT, DATA_3)
AX3 = nand(DATA_2, CTR_3)
READY = BUFF(MRQSTB)
OUTPUT(MRQSTB)
"""

#: A b14-style excerpt with wrapped operand lists: ITC-99 ``.bench``
#: conversions break wide gates across physical lines inside the
#: unclosed ``(...)``.
B14_STYLE_WRAPPED = """\
# b14
# 32 inputs
# 54 outputs

INPUT(RESET)
INPUT(B_0)
INPUT(B_1)
INPUT(B_2)

OUTPUT(D_0)

STATE_0 = DFF(NEXT_0)

U45 = AND(B_0, B_1,
    B_2, STATE_0)
U46 = NOR(RESET,
U45)
NEXT_0 = OR(
  U45,
  U46
)
D_0 = NAND(U46, STATE_0)
OUTPUT(NEXT_0)
"""


class TestPublishedBench:
    def test_s27_verbatim_parses_and_matches_library(self):
        c = parse_bench(S27_PUBLISHED, name="s27")
        assert c.stats() == s27().stats()

    def test_s27_verbatim_round_trips(self):
        c = parse_bench(S27_PUBLISHED, name="s27")
        assert parse_bench(write_bench(c), name="s27") == c

    def test_s344_style_variants(self):
        c = parse_bench(S344_STYLE, name="s344")
        assert c.inputs == ("CLR", "DATA_3", "DATA_2")
        assert set(c.outputs) == {"READY", "CTR_3", "MRQSTB"}
        assert c.num_state_vars == 2
        assert c.gate_by_output["READY"].kind == "BUF"
        assert parse_bench(write_bench(c), name="s344") == c

    def test_b14_style_wrapped_operands(self):
        c = parse_bench(B14_STYLE_WRAPPED, name="b14")
        assert c.gate_by_output["U45"].inputs == (
            "B_0", "B_1", "B_2", "STATE_0")
        assert c.gate_by_output["NEXT_0"].inputs == ("U45", "U46")
        assert parse_bench(write_bench(c), name="b14") == c

    def test_error_points_at_statement_start(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = AND(a,\na)\nBROKEN TEXT\n"
        with pytest.raises(CircuitError, match=r"bad:5"):
            parse_bench(text, name="bad")

    def test_unterminated_statement(self):
        with pytest.raises(CircuitError, match=r"trunc:2.*unterminated"):
            parse_bench("INPUT(a)\ny = AND(a,\n", name="trunc")


# -- round-trip properties ----------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    num_inputs=st.integers(min_value=1, max_value=8),
    num_flops=st.integers(min_value=0, max_value=12),
    gates_extra=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bench_round_trip_property(num_inputs, num_flops, gates_extra, seed):
    num_gates = max(1, num_flops) + gates_extra
    c = random_circuit("rt", num_inputs, num_flops, num_gates, seed=seed)
    assert parse_bench(write_bench(c), name="rt") == c


@settings(max_examples=20, deadline=None)
@given(
    num_inputs=st.integers(min_value=1, max_value=8),
    num_flops=st.integers(min_value=0, max_value=12),
    gates_extra=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_verilog_round_trip_property(num_inputs, num_flops, gates_extra, seed):
    num_gates = max(1, num_flops) + gates_extra
    c = random_circuit("rt", num_inputs, num_flops, num_gates, seed=seed)
    assert parse_verilog(write_verilog(c)) == c


def test_round_trip_at_5k_gates():
    """Both serializers survive a 5k-gate netlist unchanged."""
    c = random_circuit("big5k", 40, 200, 5000, seed=11)
    assert parse_bench(write_bench(c), name="big5k") == c
    assert parse_verilog(write_verilog(c)) == c


def test_50k_gates_construct_levelize_fingerprint():
    """A 50k-gate synthetic constructs, levelizes and fingerprints
    without recursion errors or quadratic blowup (budget: well under a
    minute; quadratic behavior would take hours)."""
    from repro.cache.fingerprint import circuit_fingerprint

    c = random_circuit("big50k", 100, 1000, 50_000, seed=3)
    assert c.num_gates == 50_000
    assert len(c.topo_gates) == 50_000
    assert len(circuit_fingerprint(c)) == 64


# -- corpus registry ----------------------------------------------------------

class TestCorpusRegistry:
    def test_names_registered(self):
        assert {"s9234", "s13207", "s15850", "s38417", "b14", "b17"} \
            <= set(corpus_names())

    def test_synth_like_matches_spec(self):
        spec = CORPUS["s15850"]
        c = synth_like("s15850")
        assert c.num_inputs == spec.num_inputs
        assert c.num_state_vars == spec.num_flops
        assert c.num_gates == spec.num_gates
        # Sampled POs honor the spec exactly; dead-net promotion may
        # append more.
        assert c.num_outputs >= spec.num_outputs

    def test_synth_like_deterministic(self):
        assert write_bench(synth_like("s9234")) == \
            write_bench(synth_like("s9234"))

    def test_synth_like_seed_population(self):
        a, b = synth_like("s9234", seed=1), synth_like("s9234", seed=2)
        assert write_bench(a) != write_bench(b)
        assert a.num_gates == b.num_gates

    def test_unknown_name_one_line_error(self):
        with pytest.raises(CircuitError, match="unknown corpus circuit"):
            synth_like("s99999")

    def test_flow_overrides_bound_effort(self):
        """Corpus presets must keep a 10k-gate flow inside CI budgets:
        targeted ATPG capped, completions and redundancy proofs off
        (PODEM justification costs ~a minute per fault at this scale,
        scan-out completions append whole chain flushes)."""
        from repro.circuit.corpus import flow_overrides

        over = flow_overrides("corpus:s15850")
        assert over["atpg"].max_targeted_faults > 0
        assert over["classify_redundant"] is False
        assert over["use_scan_knowledge"] is False
        assert over["use_justification"] is False
        # Deterministic: the same spec always yields the same preset.
        assert flow_overrides("corpus:s15850") == over
        # The overrides must all be FlowConfig fields.
        from repro.core.config import FlowConfig

        FlowConfig(**over)


# -- loader dispatch ----------------------------------------------------------

class TestLoadCircuit:
    def test_corpus_spec(self):
        assert is_corpus_spec("corpus:s9234")
        c = load_circuit("corpus:s9234")
        assert c.name == "s9234"

    def test_bench_suffix_case_insensitive(self, tmp_path):
        for suffix in (".bench", ".BENCH", ".Bench"):
            path = tmp_path / f"c{suffix}"
            path.write_text(S27_PUBLISHED)
            assert load_circuit(path).num_inputs == 4

    def test_verilog_suffix_case_insensitive(self, tmp_path):
        c = random_circuit("vc", 3, 4, 20, seed=5)
        path = tmp_path / "c.V"
        path.write_text(write_verilog(c))
        assert load_circuit(path) == c

    def test_unsupported_extension_one_line(self, tmp_path):
        path = tmp_path / "c.blif"
        path.write_text(".model c\n.end\n")
        with pytest.raises(CircuitError, match="unsupported netlist"):
            load_circuit(path)

    def test_unsupported_extension_without_file(self):
        # The error must not depend on the file existing.
        with pytest.raises(CircuitError, match="unsupported netlist"):
            load_circuit("whatever.vhd")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_circuit("nope_does_not_exist.bench")

    def test_suffixless_existing_file_is_bench(self, tmp_path):
        path = tmp_path / "s27"
        path.write_text(S27_PUBLISHED)
        assert load_circuit(path).num_inputs == 4


class TestCli:
    def _run(self, *argv):
        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env,
        )

    def test_unsupported_extension_exit_and_message(self, tmp_path):
        path = tmp_path / "c.blif"
        path.write_text("x")
        proc = self._run("info", str(path))
        assert proc.returncode == 2
        assert "unsupported netlist extension" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corpus_spec_info(self):
        proc = self._run("info", "corpus:s9234")
        assert proc.returncode == 0
        assert "inputs" in proc.stdout

    def test_list_shows_corpus(self):
        proc = self._run("list")
        assert proc.returncode == 0
        assert "corpus:s15850" in proc.stdout


# -- scale machinery stays bit-identical --------------------------------------

class TestScaleKnobs:
    def test_auto_interval_bit_identical(self):
        """On sequences longer than 24 vectors the session's checkpoint
        interval ``max(4, isqrt(n))`` exceeds 4; resuming from those
        checkpoints answers exactly like restarting every query from
        cycle 0."""
        from repro.faults.collapse import collapse_faults
        from repro.sim.session import SimSession
        from tests.util import random_vectors

        circuit = random_circuit("sk", 5, 8, 60, seed=21)
        faults = collapse_faults(circuit)
        vectors = random_vectors(circuit, 81, seed=2)
        edited = [list(v) for v in vectors]
        edited[40] = [1 - bit for bit in edited[40]]
        # Prefix re-queries, an edit past the first checkpoints, and a
        # query that omits one vector, as omission trials do.
        queries = [vectors, vectors[:60], edited, vectors[:50] + vectors[51:],
                   vectors]

        def answers(incremental):
            session = SimSession(circuit, faults, incremental=incremental)
            got = [session.detection_times(q) for q in queries]
            got.append(session.detected_mask(edited[:70]))
            return got, session.checkpoint_hits

        resumed, hits = answers(True)
        restarted, _ = answers(False)
        assert resumed == restarted
        assert hits > 0
