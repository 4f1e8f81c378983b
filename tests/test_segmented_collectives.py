"""Segmented collective schedules: parity, determinism, wire accounting.

The ``segment_bytes`` knob splits a scheduled allreduce's payload into
near-equal segments and expands the compiled schedule step-major, so the
runner pipelines them.  This suite holds that transform to its contract on
every SPMD backend:

* **parity** — op x algorithm x segment size (uneven last segment,
  segment > payload, near-element-sized degenerate) is allclose to the
  bitwise-reference ``"direct"`` fold, exactly deterministic across
  repeated runs, and bitwise identical across ranks;
* **degeneration** — ``segment_bytes=None`` and any segment size yielding
  ``nseg <= 1`` run the *identical* unsegmented schedule (bitwise), and
  record zero pipeline segments;
* **wire accounting** — measured wire counters (and the process backend's
  shared-memory transport counter) equal
  ``segmented_allreduce_wire_bytes`` to the byte: segmentation re-chunks
  the schedule, it never changes the volume;
* **env override** — ``REPRO_SEGMENT_BYTES`` parses loudly and overrides
  the call site, and ``collective_segments`` proves the pipeline engaged.
"""

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd
from repro.comm.communicator import SEGMENT_BYTES_ENV, _parse_segment_bytes
from repro.comm.collective_models import (
    segment_sizes,
    segmented_allreduce_wire_bytes,
    select_segment_bytes,
)

ALGS = ("ring", "rabenseifner", "recursive_doubling")

#: (payload elements, segment_bytes) cases: uneven last segment, segment
#: larger than the payload (degenerates to the whole schedule), and a
#: near-element-sized segment (maximum pipeline depth).
SEG_CASES = (
    (1031, 3000),        # 8248 B / 3000 B -> 3 uneven segments
    (257, 10**9),        # segment > payload -> nseg == 1, bitwise None
    (37, 16),            # ~2 elements per segment: degenerate pipelining
)


def _seg_prog(comm, alg, n, seg, op):
    rng = np.random.default_rng(1000 + comm.rank)
    x = rng.standard_normal(n)
    if op == "prod":
        x = 1.0 + 0.01 * x
    direct = comm.allreduce(x, op=op, algorithm="direct")
    comm.stats.reset()
    first = comm.allreduce(x, op=op, algorithm=alg, segment_bytes=seg)
    nseg = comm.stats.total_segments("allreduce")
    again = comm.allreduce(x, op=op, algorithm=alg, segment_bytes=seg)
    return direct, first, again, nseg


class TestSegmentedParity:
    @pytest.mark.parametrize("alg", ALGS)
    @pytest.mark.parametrize("op", ("sum", "max"))
    @pytest.mark.parametrize("n,seg", SEG_CASES)
    def test_parity_determinism_and_segment_count(
        self, backend, alg, op, n, seg
    ):
        reduce_for_process(
            backend,
            heavy=not (alg == "ring" and op == "sum"),
            reason="forked backends run the ring/sum column",
        )
        p = 4
        results = run_spmd(
            p, _seg_prog, alg, n, seg, op, backend=backend, timeout=120
        )
        expected_nseg = len(segment_sizes(n * 8, seg))
        ref = results[0]
        for direct, first, again, nseg in results:
            np.testing.assert_allclose(first, direct, rtol=1e-10, atol=1e-12)
            # Deterministic: the same call reduces in the same order.
            np.testing.assert_array_equal(first, again)
            # All ranks hold the bitwise-identical result.
            np.testing.assert_array_equal(first, ref[1])
            # The pipeline actually engaged (or degenerated, if nseg<=1).
            assert nseg == (expected_nseg if expected_nseg > 1 else 0)

    def test_oversized_segment_is_bitwise_none(self, backend):
        """``nseg <= 1`` must run the identical unsegmented schedule."""

        def prog(comm):
            rng = np.random.default_rng(50 + comm.rank)
            x = rng.standard_normal(257)
            whole = comm.allreduce(x, algorithm="ring", segment_bytes=None)
            huge = comm.allreduce(x, algorithm="ring", segment_bytes=10**9)
            return whole, huge, comm.stats.total_segments("allreduce")

        for whole, huge, nseg in run_spmd(4, prog, backend=backend, timeout=60):
            np.testing.assert_array_equal(whole, huge)
            assert nseg == 0  # neither call engaged the pipeline


class TestWireAccounting:
    @pytest.mark.parametrize("alg", ALGS)
    def test_wire_and_transport_match_model_exactly(self, alg):
        """Measured wire bytes (and the process backend's shared-memory
        transport counter) equal the segmented model to the byte for
        payloads divisible by ``nseg * p``."""
        p, nbytes = 4, 262_144
        seg = nbytes // 4

        def prog(comm, segment):
            x = np.full(nbytes // 8, 1.0 + comm.rank)
            comm.allreduce(x, algorithm=alg, segment_bytes=segment)  # warm
            comm.stats.reset()
            transport = comm._world.transport
            before = transport["shm_bytes"]
            comm.allreduce(x, algorithm=alg, segment_bytes=segment)
            return (
                comm.stats.total_wire_sent("allreduce"),
                transport["shm_bytes"] - before,
            )

        for segment in (None, seg):
            modeled = segmented_allreduce_wire_bytes(p, nbytes, segment, alg)
            for wire, shm in run_spmd(
                p, prog, segment, backend="process", timeout=120
            ):
                assert wire == modeled
                assert shm == modeled


class TestEnvOverride:
    def test_parse_accepts_documented_spellings(self):
        assert _parse_segment_bytes("auto") == "auto"
        assert _parse_segment_bytes("AUTO") == "auto"
        for off in ("none", "off", "0", " None "):
            assert _parse_segment_bytes(off) is None
        assert _parse_segment_bytes("4096") == 4096

    def test_parse_rejects_typos_loudly(self):
        with pytest.raises(ValueError, match="not a segment size"):
            _parse_segment_bytes("4k")
        with pytest.raises(ValueError):
            _parse_segment_bytes("-1")

    def test_env_overrides_call_site(self, monkeypatch):
        """The env forces its segment size over the explicit kwarg, and
        the segments counter proves the pipeline engaged."""
        n = 65_536 // 8
        monkeypatch.setenv(SEGMENT_BYTES_ENV, "4096")

        def prog(comm):
            x = np.full(n, 1.0 + comm.rank)
            comm.stats.reset()
            y = comm.allreduce(x, algorithm="ring", segment_bytes=None)
            return y, comm.stats.total_segments("allreduce")

        expected = len(segment_sizes(n * 8, 4096))
        assert expected == 16
        for y, nseg in run_spmd(4, prog, timeout=60):
            np.testing.assert_allclose(y, np.full(n, 1.0 + 2.0 + 3.0 + 4.0))
            assert nseg == expected

    def test_env_auto_applies_model_selection(self, monkeypatch):
        n = 1_048_576 // 8
        monkeypatch.setenv(SEGMENT_BYTES_ENV, "auto")
        sel = select_segment_bytes(4, n * 8, algorithm="ring")
        assert sel is not None  # 1 MiB on 4 ranks: the model does segment

        def prog(comm):
            x = np.full(n, float(comm.rank))
            comm.stats.reset()
            comm.allreduce(x, algorithm="ring")
            return comm.stats.total_segments("allreduce")

        expected = len(segment_sizes(n * 8, sel))
        for nseg in run_spmd(4, prog, timeout=60):
            assert nseg == expected

    def test_env_off_disables_call_site_segmentation(self, monkeypatch):
        monkeypatch.setenv(SEGMENT_BYTES_ENV, "off")

        def prog(comm):
            x = np.full(4096, float(comm.rank))
            comm.stats.reset()
            comm.allreduce(x, algorithm="ring", segment_bytes=8192)
            return comm.stats.total_segments("allreduce")

        assert run_spmd(4, prog, timeout=60) == [0, 0, 0, 0]
