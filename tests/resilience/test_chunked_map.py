"""Chunked pool tasks under :func:`repro.resilience.runtime.resilient_map`.

With ``chunksize > 1`` and a process pool, :func:`repro.parallel.parallel_map`
ships several items in each pooled task.  A chunk still runs the per-item
function on each of its items and reports one value or failure per item,
so chunking never changes what a sweep observes: the same
(results, failures), and the same per-item journal, as one task per item.
Chunking only acts on the pool path, so these tests run with two workers.
"""

import pytest

from repro.parallel import TaskFailure
from repro.resilience import FaultInjection
from repro.resilience.journal import ProgressJournal
from repro.resilience.runtime import resilient_map

KEY = {"suite": "chunked-map"}


def square(item):
    """Per-item worker; negative items fail."""
    if item < 0:
        raise ValueError(f"negative item {item}")
    return item * item


def cube(item):
    return square(item) * item


def run(items, tmp_path, *, batch, fn=square, workers=2, resume=None,
        timeout=None):
    return resilient_map(
        fn, items, journal_kind="chunked", journal_key=KEY,
        directory=tmp_path, workers=workers, chunksize=batch,
        timeout=timeout, resume=resume,
    )


class TestDemux:
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 10])
    def test_results_in_input_order_for_any_batch(self, batch, tmp_path):
        items = list(range(7))  # 7 items: every batch size leaves a ragged tail
        results, failures = run(items, tmp_path, batch=batch)
        assert results == [i * i for i in items]
        assert failures == []

    def test_point_failure_isolated_within_chunk(self, tmp_path):
        items = [1, -2, 3, 4]
        results, failures = run(items, tmp_path, batch=2)
        assert [results[i] for i in (0, 2, 3)] == [1, 9, 16]
        assert isinstance(results[1], TaskFailure)
        assert len(failures) == 1
        assert failures[0].index == 1
        assert failures[0].kind == "error"
        assert failures[0].message == "negative item -2"
        assert failures[0].error_type == "ValueError"

    def test_lost_chunk_fails_all_its_points(self, tmp_path):
        """Item 1 hangs, so its chunk (items 0 and 1) times out: both
        items fail with the chunk's record, and the other chunks land."""
        with FaultInjection("hang@1:1", hang_seconds=30):
            results, failures = run([1, 2, 3, 4, 5], tmp_path, batch=2,
                                    timeout=1.0)
        assert [f.index for f in failures] == [0, 1]
        assert all(f.kind == "timeout" for f in failures)
        assert all("task timeout" in f.message for f in failures)
        assert results[:2] == failures
        assert results[2:] == [9, 16, 25]

    def test_matches_resilient_map_shape(self, tmp_path):
        """Same (results, failures) as one serial task per item."""
        items = [2, -1, 4, 5, -3]
        (tmp_path / "c").mkdir()
        (tmp_path / "s").mkdir()
        chunked_results, chunked_failures = run(items, tmp_path / "c", batch=2)
        scalar_results, scalar_failures = run(items, tmp_path / "s", batch=1,
                                              workers=0)
        assert len(chunked_failures) == len(scalar_failures) == 2
        for c, s in zip(chunked_results, scalar_results):
            if isinstance(s, TaskFailure):
                assert isinstance(c, TaskFailure)
                assert (c.index, c.kind, c.message, c.error_type) == \
                    (s.index, s.kind, s.message, s.error_type)
            else:
                assert c == s


class TestJournal:
    def journal(self, tmp_path):
        return ProgressJournal.for_key(tmp_path, "chunked", KEY)

    def test_journal_cleared_on_success(self, tmp_path):
        run(list(range(5)), tmp_path, batch=2)
        assert self.journal(tmp_path).load() == {}

    def test_surviving_points_journaled_per_point(self, tmp_path):
        """Chunk-mates of a failed point land in the journal individually."""
        run([1, -2, 3, 5], tmp_path, batch=2)
        assert self.journal(tmp_path).load() == {0: 1, 2: 9, 3: 25}

    def test_resume_skips_done_points_across_batch_sizes(self, tmp_path):
        """A sweep interrupted under one chunk size resumes under another
        (the journal identity is chunk-blind).  The resumed run cubes, so
        the squares show which points came from the journal."""
        run([1, -2, 3, -4, 5, -6, 7], tmp_path, batch=3)
        results, failures = run([1, 2, 3, 4, 5, 6, 7], tmp_path, batch=2,
                                fn=cube, resume=True)
        # Only points 1, 3 and 5 recompute (in chunks [1, 3] and [5]).
        assert results == [1, 8, 9, 64, 25, 216, 49]
        assert failures == []

    def test_scalar_map_resumes_chunked_journal(self, tmp_path):
        """Interop both ways: a chunked run picks up a serial run's
        journal, and a serial run picks up a chunked one's."""
        run([1, -2, 3, -4, 5, -6, 7, -8], tmp_path, batch=1, workers=0)
        results, failures = run([1, 2, 3, 4, 5, -6, 7, -8], tmp_path,
                                batch=2, fn=cube, resume=True)
        assert results[:5] == [1, 8, 9, 64, 25]
        assert [f.index for f in failures] == [5, 7]
        results, failures = run([1, 2, 3, 4, 5, 6, 7, 8], tmp_path,
                                batch=1, fn=cube, workers=0, resume=True)
        assert results == [1, 8, 9, 64, 25, 216, 49, 512]
        assert failures == []

    def test_fresh_run_clears_stale_journal(self, tmp_path):
        run([1, -2, 3], tmp_path, batch=2)
        results, failures = run([1, 2, 3], tmp_path, batch=2, fn=cube)
        assert results == [1, 8, 27]
        assert failures == []
